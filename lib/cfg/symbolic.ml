(* Symbolic scaling polynomials.

   The abstract domain of the static communication-complexity analysis:
   a value is a sum of monomials [c * p^a * log2(p)^b] in the process
   count [p], or Top when the program computes something the domain
   cannot follow (rank arithmetic, unbound variables, data-dependent
   divisions, recursion).  The app's size parameters are compile-time
   constants of a MiniMPI program, so they fold into the coefficients;
   [p] is the only symbol.  Fractional exponents are allowed —
   [isqrt(np)] process grids produce p^0.5.

   Widening keeps the representation small: polynomials are truncated to
   their [max_terms] leading monomials (exponent-lexicographic order),
   which preserves the dominant term and therefore the complexity
   class.  Joins (Min/Max, merging branch arms) take the term-wise upper
   bound, so every derived count is an over-approximation. *)

open Scalana_mlang

type mono = { coeff : float; p_exp : float; log_exp : float }
type t = Poly of mono list | Top  (* Poly [] is zero *)

let max_terms = 8
let top = Top
let zero = Poly []
let is_top = function Top -> true | Poly _ -> false
let is_zero = function Poly [] -> true | _ -> false

(* Exponent-lexicographic order, dominant first. *)
let cmp_mono a b =
  match compare b.p_exp a.p_exp with
  | 0 -> compare b.log_exp a.log_exp
  | c -> c

let norm monos =
  let merged = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let key = (m.p_exp, m.log_exp) in
      let c = try Hashtbl.find merged key with Not_found -> 0.0 in
      Hashtbl.replace merged key (c +. m.coeff))
    monos;
  let kept =
    Hashtbl.fold
      (fun (p_exp, log_exp) coeff acc ->
        if Float.abs coeff < 1e-12 then acc
        else { coeff; p_exp; log_exp } :: acc)
      merged []
    |> List.sort cmp_mono
  in
  (* widening: drop trailing (asymptotically dominated) terms *)
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  Poly (take max_terms kept)

let const c =
  if Float.abs c < 1e-12 then zero
  else Poly [ { coeff = c; p_exp = 0.0; log_exp = 0.0 } ]

let one = const 1.0
let p = Poly [ { coeff = 1.0; p_exp = 1.0; log_exp = 0.0 } ]
let log_p = Poly [ { coeff = 1.0; p_exp = 0.0; log_exp = 1.0 } ]

let mono ~coeff ~p_exp ~log_exp =
  if Float.abs coeff < 1e-12 then zero else Poly [ { coeff; p_exp; log_exp } ]

let add a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Poly xs, Poly ys -> norm (xs @ ys)

let neg = function
  | Top -> Top
  | Poly xs -> Poly (List.map (fun m -> { m with coeff = -.m.coeff }) xs)

let sub a b = add a (neg b)

let mul a b =
  match (a, b) with
  | Poly [], _ | _, Poly [] -> zero  (* 0 * Top = 0: Top counts are >= 0 *)
  | Top, _ | _, Top -> Top
  | Poly xs, Poly ys ->
      norm
        (List.concat_map
           (fun x ->
             List.map
               (fun y ->
                 {
                   coeff = x.coeff *. y.coeff;
                   p_exp = x.p_exp +. y.p_exp;
                   log_exp = x.log_exp +. y.log_exp;
                 })
               ys)
           xs)

(* Division is exact only by a single monomial; anything else widens. *)
let div a b =
  match (a, b) with
  | _, Poly [] -> Top
  | Top, _ | _, Top -> Top
  | Poly xs, Poly [ d ] ->
      norm
        (List.map
           (fun x ->
             {
               coeff = x.coeff /. d.coeff;
               p_exp = x.p_exp -. d.p_exp;
               log_exp = x.log_exp -. d.log_exp;
             })
           xs)
  | Poly _, Poly _ -> Top

let dominant = function
  | Top -> None
  | Poly [] -> None
  | Poly (m :: _) -> Some m

(* Join = least upper bound used for Min/Max and branch merging: the
   term-wise maximum of the two polynomials (coefficients of matching
   exponents joined by max, unmatched terms kept). *)
let join a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Poly xs, Poly ys ->
      let tbl = Hashtbl.create 8 in
      let feed ms =
        List.iter
          (fun m ->
            let key = (m.p_exp, m.log_exp) in
            let c = try Hashtbl.find tbl key with Not_found -> neg_infinity in
            Hashtbl.replace tbl key (Float.max c m.coeff))
          ms
      in
      feed xs;
      feed ys;
      norm
        (Hashtbl.fold
           (fun (p_exp, log_exp) coeff acc -> { coeff; p_exp; log_exp } :: acc)
           tbl [])

let equal a b =
  match (a, b) with
  | Top, Top -> true
  | Poly xs, Poly ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun x y ->
             Float.abs (x.coeff -. y.coeff) <= 1e-9 *. (1.0 +. Float.abs x.coeff)
             && x.p_exp = y.p_exp && x.log_exp = y.log_exp)
           xs ys
  | Top, Poly _ | Poly _, Top -> false

let log2f v = if v <= 1.0 then 0.0 else log v /. log 2.0

(* --- complexity classes --- *)

type cls = Cls of { a : float; b : float } | Unknown

let cls_of t =
  match dominant t with
  | None when is_zero t -> Cls { a = 0.0; b = 0.0 }
  | None -> Unknown
  | Some m -> Cls { a = m.p_exp; b = m.log_exp }

let fmt_exp x =
  if Float.is_integer x then string_of_int (int_of_float x)
  else Printf.sprintf "%g" x

let cls_label = function
  | Unknown -> "O(?)"
  | Cls { a; b } ->
      let pterm =
        if a = 0.0 then ""
        else if a = 1.0 then "p"
        else if a = 0.5 then "sqrt(p)"
        else if a = -1.0 then "1/p"
        else Printf.sprintf "p^%s" (fmt_exp a)
      in
      let lterm =
        if b = 0.0 then ""
        else if b = 1.0 then "log p"
        else Printf.sprintf "log^%s p" (fmt_exp b)
      in
      let body =
        match (pterm, lterm) with
        | "", "" -> "1"
        | s, "" | "", s -> s
        | ps, ls -> ps ^ " " ^ ls
      in
      "O(" ^ body ^ ")"

let cls_compare x y =
  match (x, y) with
  | Unknown, Unknown -> 0
  | Unknown, Cls _ -> 1  (* unknown sorts above every bound *)
  | Cls _, Unknown -> -1
  | Cls { a = xa; b = xb }, Cls { a = ya; b = yb } -> compare (xa, xb) (ya, yb)

let cls_equal x y = cls_compare x y = 0

(* --- exponent fitting ---

   Recover (a, b) of c*p^a*log^b(p) from samples at probe scales: for
   each candidate log power b, divide it out and fit the slope a by
   least squares on log/log axes; keep the (a, b) with the smallest
   residual, preferring lower b on ties.  Exponents snap to the halves
   grid the MiniMPI idioms produce (isqrt grids: 0.5; hypercubes: log). *)

let snap_grid = [ -2.0; -1.5; -1.0; -0.5; 0.0; 0.5; 1.0; 1.5; 2.0; 2.5; 3.0 ]

let snap a =
  let best =
    List.fold_left
      (fun (bs, bd) g ->
        let d = Float.abs (a -. g) in
        if d < bd then (g, d) else (bs, bd))
      (a, 0.2) snap_grid
  in
  fst best

let fit_exponents samples =
  let samples = List.filter (fun (_, y) -> y > 0.0) samples in
  if List.length samples < 2 then None
  else begin
    let eval_b b =
      let pts =
        List.map
          (fun (np, y) ->
            let pf = float_of_int np in
            let lg = Float.max 1.0 (log2f pf) in
            (log pf, log (y /. Float.pow lg b)))
          samples
      in
      let n = float_of_int (List.length pts) in
      let sx = List.fold_left (fun s (x, _) -> s +. x) 0.0 pts in
      let sy = List.fold_left (fun s (_, y) -> s +. y) 0.0 pts in
      let sxx = List.fold_left (fun s (x, _) -> s +. (x *. x)) 0.0 pts in
      let sxy = List.fold_left (fun s (x, y) -> s +. (x *. y)) 0.0 pts in
      let denom = (n *. sxx) -. (sx *. sx) in
      if Float.abs denom < 1e-12 then None
      else begin
        let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
        let icept = (sy -. (slope *. sx)) /. n in
        let resid =
          List.fold_left
            (fun s (x, y) ->
              let e = y -. (icept +. (slope *. x)) in
              s +. (e *. e))
            0.0 pts
        in
        Some (slope, resid)
      end
    in
    let candidates =
      List.filter_map
        (fun b ->
          Option.map (fun (slope, resid) -> (b, slope, resid)) (eval_b b))
        [ 0.0; 1.0; 2.0 ]
    in
    match candidates with
    | [] -> None
    | first :: rest ->
        let b, slope, _ =
          List.fold_left
            (fun (bb, bs, br) (b, s, r) ->
              (* a lower log power wins unless the higher one fits
                 measurably (5%) better *)
              if r < br *. 0.95 then (b, s, r) else (bb, bs, br))
            first rest
        in
        Some (Cls { a = snap slope; b })
  end

(* --- symbolic evaluation of MiniMPI expressions --- *)

type env = { params : (string * int) list; vars : (string * t) list }

let env ~params ~vars = { params; vars }

let rec of_expr env (e : Expr.t) =
  match e with
  | Expr.Int n -> const (float_of_int n)
  | Expr.Nprocs -> p
  | Expr.Rank -> Top  (* rank-dependent: not a function of the scale *)
  | Expr.Param s -> (
      match List.assoc_opt s env.params with
      | Some v -> const (float_of_int v)
      | None -> Top)
  | Expr.Var v -> (
      match List.assoc_opt v env.vars with Some t -> t | None -> Top)
  | Expr.Neg a -> neg (of_expr env a)
  | Expr.Not _ -> Top
  | Expr.Bin (op, a, b) -> of_binop env op a b
  | Expr.Log2 a -> sym_log2 (of_expr env a)
  | Expr.Isqrt a -> sym_isqrt (of_expr env a)

and of_binop env op a b =
  let va () = of_expr env a in
  let vb () = of_expr env b in
  match (op : Expr.binop) with
  | Expr.Add -> add (va ()) (vb ())
  | Expr.Sub -> sub (va ()) (vb ())
  | Expr.Mul -> mul (va ()) (vb ())
  | Expr.Div -> div (va ()) (vb ())
  | Expr.Shl -> (
      (* a * 2^b when the shift amount is a constant *)
      match vb () with
      | Poly [ { coeff; p_exp = 0.0; log_exp = 0.0 } ] ->
          mul (va ()) (const (Float.pow 2.0 coeff))
      | _ -> Top)
  | Expr.Shr -> (
      match vb () with
      | Poly [ { coeff; p_exp = 0.0; log_exp = 0.0 } ] ->
          div (va ()) (const (Float.pow 2.0 coeff))
      | _ -> Top)
  | Expr.Min | Expr.Max ->
      (* upper bound of either arm: sound for counts in both cases *)
      join (va ()) (vb ())
  | Expr.Mod | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge | Expr.Eq | Expr.Ne
  | Expr.And | Expr.Or | Expr.Xor ->
      Top

(* log2(c * p^a * log^b p) ~ a*log2(p) + log2(c): keep the terms the
   domain can express, widen the log-log remainder away. *)
and sym_log2 = function
  | Top -> Top
  | Poly [] -> zero
  | Poly (m :: _) ->
      (* the log of the dominant monomial bounds the log of the sum (up
         to an additive constant the classes ignore) *)
      if m.log_exp > 0.0 && m.p_exp = 0.0 then Top  (* log(log p) *)
      else begin
        let const_part =
          if m.coeff >= 1.0 then const (log2f m.coeff) else zero
        in
        if m.p_exp > 0.0 then
          add (mono ~coeff:m.p_exp ~p_exp:0.0 ~log_exp:1.0) const_part
        else const_part
      end

and sym_isqrt = function
  | Top -> Top
  | Poly [] -> zero
  | Poly (m :: _) ->
      (* sqrt of the dominant monomial bounds isqrt of the sum *)
      mono
        ~coeff:(Float.sqrt (Float.abs m.coeff))
        ~p_exp:(m.p_exp /. 2.0) ~log_exp:(m.log_exp /. 2.0)

(* --- printing --- *)

let pp_mono ppf m =
  let parts = ref [] in
  if m.log_exp <> 0.0 then
    parts :=
      (if m.log_exp = 1.0 then "log p"
       else Printf.sprintf "log^%s p" (fmt_exp m.log_exp))
      :: !parts;
  if m.p_exp <> 0.0 then
    parts :=
      (if m.p_exp = 1.0 then "p" else Printf.sprintf "p^%s" (fmt_exp m.p_exp))
      :: !parts;
  let symbols = String.concat " " !parts in
  if symbols = "" then Fmt.pf ppf "%g" m.coeff
  else if Float.abs (m.coeff -. 1.0) < 1e-9 then Fmt.string ppf symbols
  else Fmt.pf ppf "%g %s" m.coeff symbols

let pp ppf = function
  | Top -> Fmt.string ppf "T"
  | Poly [] -> Fmt.string ppf "0"
  | Poly ms ->
      List.iteri
        (fun i m ->
          if i > 0 then Fmt.string ppf (if m.coeff >= 0.0 then " + " else " ");
          pp_mono ppf m)
        ms

let to_string = Fmt.to_to_string pp
