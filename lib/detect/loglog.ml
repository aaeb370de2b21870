(* Log–log model fitting (Section IV-A cites Barnes et al.'s
   regression-based approach): fit  log T = a + b log P  by ordinary
   least squares; the slope b is the vertex's "changing rate" as the
   scale grows. *)

type fit = { intercept : float; slope : float; r2 : float; n : int }

(* Points with non-positive T or P are dropped (a vertex absent at a
   scale).  The scale axis is a float so elastic sessions can fit
   against their *effective* (time-weighted mean) process count; an
   integer nominal scale goes through [fit] below bit-identically. *)
let fit_scaled points =
  let pts =
    List.filter_map
      (fun (p, t) -> if t > 0.0 && p > 0.0 then Some (log p, log t) else None)
      points
  in
  let n = List.length pts in
  if n < 2 then { intercept = 0.0; slope = 0.0; r2 = 0.0; n }
  else begin
    let fn = float_of_int n in
    let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 pts in
    let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 pts in
    let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0.0 pts in
    let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0.0 pts in
    let denom = (fn *. sxx) -. (sx *. sx) in
    if abs_float denom < 1e-12 then { intercept = 0.0; slope = 0.0; r2 = 0.0; n }
    else begin
      let slope = ((fn *. sxy) -. (sx *. sy)) /. denom in
      let intercept = (sy -. (slope *. sx)) /. fn in
      let ybar = sy /. fn in
      let ss_tot =
        List.fold_left (fun acc (_, y) -> acc +. ((y -. ybar) ** 2.0)) 0.0 pts
      in
      let ss_res =
        List.fold_left
          (fun acc (x, y) ->
            let e = y -. (intercept +. (slope *. x)) in
            acc +. (e *. e))
          0.0 pts
      in
      let r2 = if ss_tot > 0.0 then 1.0 -. (ss_res /. ss_tot) else 1.0 in
      { intercept; slope; r2; n }
    end
  end

let fit points =
  fit_scaled (List.map (fun (p, t) -> (float_of_int p, t)) points)

(* Ideal strong-scaling slope: time halves when processes double. *)
let ideal_strong_scaling_slope = -1.0
