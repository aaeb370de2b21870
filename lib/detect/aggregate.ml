(* Strategies for merging a vertex's per-rank metric into one value
   (Section IV-A discusses single-process, mean/median + variance, and
   clustering-based merging; all are implemented and compared in the
   ablation bench). *)

type strategy =
  | Single of int  (* one representative rank *)
  | Mean
  | Median
  | Variance_weighted  (* mean + variance penalty, surfaces imbalance *)
  | Kmeans of int  (* centroid of the heaviest cluster *)

let strategy_name = function
  | Single r -> Printf.sprintf "single(%d)" r
  | Mean -> "mean"
  | Median -> "median"
  | Variance_weighted -> "variance"
  | Kmeans k -> Printf.sprintf "kmeans(%d)" k

(* Poisoned values (NaN from a broken counter, negative garbage) are
   quarantined before any merging. *)
let quarantined x = Float.is_nan x || x < 0.0

(* Every function below reads one row in place — in the PPG, one
   vertex's cells across ranks, indexed by rank.  Each scan visits the
   cells in rank order and skips quarantined ones, so over a clean row
   every statistic is the textbook formula evaluated left to right (the
   reports' floats depend on that order). *)

let quarantined_in row =
  let n = ref 0 in
  for i = 0 to Array.length row - 1 do
    if quarantined row.(i) then incr n
  done;
  !n

(* Survivors gathered in rank order, with the count dropped; always a
   fresh array, so callers may sort it in place. *)
let sanitize row =
  let dropped = quarantined_in row in
  if dropped = 0 then (Array.copy row, 0)
  else begin
    let keep = Array.make (Array.length row - dropped) 0.0 in
    let j = ref 0 in
    for i = 0 to Array.length row - 1 do
      if not (quarantined row.(i)) then begin
        keep.(!j) <- row.(i);
        incr j
      end
    done;
    (keep, dropped)
  end

let sum_clean row =
  let acc = ref 0.0 in
  for i = 0 to Array.length row - 1 do
    let x = row.(i) in
    if not (quarantined x) then acc := !acc +. x
  done;
  !acc

(* Largest surviving cell, 0.0 floor (the abnormal detector's scan). *)
let max_clean row =
  let acc = ref 0.0 in
  for i = 0 to Array.length row - 1 do
    let x = row.(i) in
    if not (quarantined x) then acc := Float.max !acc x
  done;
  !acc

let mean row =
  let sum = ref 0.0 and n = ref 0 in
  for i = 0 to Array.length row - 1 do
    let x = row.(i) in
    if not (quarantined x) then begin
      sum := !sum +. x;
      incr n
    end
  done;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let median row =
  let a, _ = sanitize row in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort compare a;
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  end

let variance row =
  let m = mean row in
  let acc = ref 0.0 and n = ref 0 in
  for i = 0 to Array.length row - 1 do
    let x = row.(i) in
    if not (quarantined x) then begin
      acc := !acc +. ((x -. m) *. (x -. m));
      incr n
    end
  done;
  if !n = 0 then 0.0 else !acc /. float_of_int !n

(* 1-D k-means over the surviving cells (Lloyd's algorithm,
   deterministic seeding at quantiles). *)
let kmeans ~k row =
  let a, _ = sanitize row in
  let n = Array.length a in
  if n = 0 || k <= 0 then [||]
  else begin
    let k = min k n in
    let sorted = Array.copy a in
    Array.sort compare sorted;
    let centroids =
      Array.init k (fun i -> sorted.(min (n - 1) (i * n / k + (n / (2 * k)))))
    in
    let assign = Array.make n 0 in
    let changed = ref true in
    let iters = ref 0 in
    while !changed && !iters < 100 do
      changed := false;
      incr iters;
      for i = 0 to n - 1 do
        let best = ref 0 and bestd = ref infinity in
        for c = 0 to k - 1 do
          let d = abs_float (a.(i) -. centroids.(c)) in
          if d < !bestd then begin
            bestd := d;
            best := c
          end
        done;
        if assign.(i) <> !best then begin
          assign.(i) <- !best;
          changed := true
        end
      done;
      for c = 0 to k - 1 do
        let sum = ref 0.0 and cnt = ref 0 in
        for i = 0 to n - 1 do
          if assign.(i) = c then begin
            sum := !sum +. a.(i);
            incr cnt
          end
        done;
        if !cnt > 0 then centroids.(c) <- !sum /. float_of_int !cnt
      done
    done;
    let sizes = Array.make k 0 in
    Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) assign;
    Array.init k (fun c -> (centroids.(c), sizes.(c)))
  end

let apply strategy row =
  match strategy with
  | Single r ->
      if r >= 0 && r < Array.length row && not (quarantined row.(r)) then
        row.(r)
      else 0.0
  | Mean -> mean row
  | Median -> median row
  | Variance_weighted -> mean row +. sqrt (variance row)
  | Kmeans k -> (
      (* centroid of the heaviest (largest-time) populated cluster: the
         "busy group" drives the scaling behaviour *)
      match
        Array.fold_left
          (fun acc (c, n) ->
            match acc with
            | None -> if n > 0 then Some (c, n) else None
            | Some (bc, _) -> if n > 0 && c > bc then Some (c, n) else acc)
          None
          (kmeans ~k row)
      with
      | Some (c, _) -> c
      | None -> 0.0)
