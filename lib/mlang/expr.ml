(* Integer expression language for MiniMPI.

   Expressions appear wherever a program needs a value that depends on the
   execution context: loop trip counts, message sizes, destination ranks,
   branch conditions, workload instruction counts.  Booleans are encoded
   as 0/1 integers, as in C. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Min
  | Max
  | Shl
  | Shr
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or
  | Xor

type t =
  | Int of int
  | Rank
  | Nprocs
  | Param of string
  | Var of string
  | Bin of binop * t * t
  | Neg of t
  | Not of t
  | Log2 of t  (* floor(log2 e); 0 for e <= 1 *)
  | Isqrt of t  (* floor(sqrt e); 0 for e <= 0 *)

exception Eval_error of string

let eval_error fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Min -> "min"
  | Max -> "max"
  | Shl -> "<<"
  | Shr -> ">>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"
  | Xor -> "^"

let apply_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then eval_error "division by zero" else a / b
  | Mod -> if b = 0 then eval_error "modulo by zero" else a mod b
  | Min -> min a b
  | Max -> max a b
  | Shl -> a lsl b
  | Shr -> a asr b
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0
  | And -> if a <> 0 && b <> 0 then 1 else 0
  | Or -> if a <> 0 || b <> 0 then 1 else 0
  | Xor -> a lxor b

(* Free variables (not parameters), used by validation to check that loop
   variables are bound before use. *)
let free_vars e =
  let rec go acc = function
    | Int _ | Rank | Nprocs | Param _ -> acc
    | Var v -> if List.mem v acc then acc else v :: acc
    | Bin (_, a, b) -> go (go acc a) b
    | Neg a | Not a | Log2 a | Isqrt a -> go acc a
  in
  go [] e

let params e =
  let rec go acc = function
    | Int _ | Rank | Nprocs | Var _ -> acc
    | Param p -> if List.mem p acc then acc else p :: acc
    | Bin (_, a, b) -> go (go acc a) b
    | Neg a | Not a | Log2 a | Isqrt a -> go acc a
  in
  go [] e

(* [is_static e] holds when [e] evaluates to the same value on every rank
   given only program parameters: no Rank, no Var.  Nprocs is considered
   static for a fixed job scale. *)
let rec is_static = function
  | Int _ | Param _ | Nprocs -> true
  | Rank | Var _ -> false
  | Bin (_, a, b) -> is_static a && is_static b
  | Neg a | Not a | Log2 a | Isqrt a -> is_static a

let rec depends_on_rank = function
  | Int _ | Param _ | Nprocs | Var _ -> false
  | Rank -> true
  | Bin (_, a, b) -> depends_on_rank a || depends_on_rank b
  | Neg a | Not a | Log2 a | Isqrt a -> depends_on_rank a

let rec depends_on_nprocs = function
  | Int _ | Param _ | Rank | Var _ -> false
  | Nprocs -> true
  | Bin (_, a, b) -> depends_on_nprocs a || depends_on_nprocs b
  | Neg a | Not a | Log2 a | Isqrt a -> depends_on_nprocs a

let prec = function
  | Or -> 1
  | And -> 2
  | Lt | Le | Gt | Ge | Eq | Ne -> 3
  | Xor -> 4
  | Shl | Shr -> 5
  | Add | Sub -> 6
  | Mul | Div | Mod -> 7
  | Min | Max -> 8

let rec pp_prec level ppf e =
  match e with
  | Int n -> Fmt.int ppf n
  | Rank -> Fmt.string ppf "rank"
  | Nprocs -> Fmt.string ppf "np"
  | Param p -> Fmt.pf ppf "$%s" p
  | Var v -> Fmt.string ppf v
  | Neg a -> Fmt.pf ppf "-%a" (pp_prec 9) a
  | Not a -> Fmt.pf ppf "!%a" (pp_prec 9) a
  | Log2 a -> Fmt.pf ppf "log2(%a)" (pp_prec 0) a
  | Isqrt a -> Fmt.pf ppf "isqrt(%a)" (pp_prec 0) a
  | Bin ((Min | Max) as op, a, b) ->
      Fmt.pf ppf "%s(%a, %a)" (binop_name op) (pp_prec 0) a (pp_prec 0) b
  | Bin (op, a, b) ->
      let p = prec op in
      (* comparisons are non-associative in the grammar: parenthesize
         both operands one level up *)
      let left_level =
        match op with Lt | Le | Gt | Ge | Eq | Ne -> p + 1 | _ -> p
      in
      let body ppf () =
        Fmt.pf ppf "%a %s %a" (pp_prec left_level) a (binop_name op)
          (pp_prec (p + 1)) b
      in
      if p < level then Fmt.pf ppf "(%a)" body () else body ppf ()

let pp = pp_prec 0
let to_string = Fmt.to_to_string pp

let rec equal a b =
  match (a, b) with
  | Int x, Int y -> Int.equal x y
  | Rank, Rank | Nprocs, Nprocs -> true
  | Param x, Param y | Var x, Var y -> String.equal x y
  | Bin (o1, a1, b1), Bin (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | Neg x, Neg y | Not x, Not y | Log2 x, Log2 y | Isqrt x, Isqrt y ->
      equal x y
  | ( ( Int _ | Rank | Nprocs | Param _ | Var _ | Bin _ | Neg _ | Not _
      | Log2 _ | Isqrt _ ),
      _ ) ->
      false

(* Compiled form, the one evaluator: names resolved to slots once,
   constants folded once.

   The simulator evaluates expressions on every statement execution, so
   the compiled form resolves every [Var] to an integer slot in a flat
   frame array and every [Param]/[Nprocs] to its (per-run constant) value
   at program-load time, then folds constant subtrees.  Most size/count
   expressions collapse to a single [CInt]; only genuinely rank- or
   loop-dependent trees survive as nodes.

   Error behaviour is part of the contract: unbound names and division by
   zero surface lazily, at evaluation time, as [Eval_error] with the
   messages below, and never at compile time.  Unbound names therefore
   compile to dedicated error nodes, and divisions with a constant zero
   divisor are deliberately left unfolded. *)
module Compiled = struct
  type expr =
    | CInt of int
    | CRank
    | CVar of int * string  (* slot, name kept for unbound-at-eval errors *)
    | CVar_unbound of string
    | CParam_unbound of string
    | CBin of binop * expr * expr
    | CNeg of expr
    | CNot of expr
    | CLog2 of expr
    | CIsqrt of expr

  (* Per-frame evaluation context: [c_vars.(slot)] holds the value of a
     loop variable / let binding / function argument, [c_bound] tracks
     which slots have been assigned.  Rank is the only other dynamic
     input — [Nprocs] and [Param] values were folded at compile time. *)
  type env = { c_rank : int; c_vars : int array; c_bound : Bytes.t }

  let log2_floor v =
    let rec go acc x = if x <= 1 then acc else go (acc + 1) (x / 2) in
    go 0 v

  let isqrt_floor v =
    if v <= 0 then 0
    else begin
      let r = int_of_float (sqrt (float_of_int v)) in
      let r = if (r + 1) * (r + 1) <= v then r + 1 else r in
      if r * r > v then r - 1 else r
    end

  let rec compile ~nprocs ~param ~var_slot e =
    let k = compile ~nprocs ~param ~var_slot in
    match e with
    | Int n -> CInt n
    | Rank -> CRank
    | Nprocs -> CInt nprocs
    | Param p -> (
        match param p with Some v -> CInt v | None -> CParam_unbound p)
    | Var v ->
        let slot = var_slot v in
        if slot >= 0 then CVar (slot, v) else CVar_unbound v
    | Bin (op, a, b) -> (
        match (k a, k b) with
        | CInt x, CInt y
          when not ((op = Div || op = Mod) && y = 0) ->
            CInt (apply_binop op x y)
        | ca, cb -> CBin (op, ca, cb))
    | Neg a -> ( match k a with CInt n -> CInt (-n) | c -> CNeg c)
    | Not a -> (
        match k a with
        | CInt n -> CInt (if n = 0 then 1 else 0)
        | c -> CNot c)
    | Log2 a -> (
        match k a with CInt n -> CInt (log2_floor n) | c -> CLog2 c)
    | Isqrt a -> (
        match k a with CInt n -> CInt (isqrt_floor n) | c -> CIsqrt c)

  let rec eval env = function
    | CInt n -> n
    | CRank -> env.c_rank
    | CVar (slot, name) ->
        if Bytes.unsafe_get env.c_bound slot <> '\000' then
          Array.unsafe_get env.c_vars slot
        else eval_error "unbound variable %S" name
    | CVar_unbound v -> eval_error "unbound variable %S" v
    | CParam_unbound p -> eval_error "unbound parameter %S" p
    | CBin (op, a, b) -> apply_binop op (eval env a) (eval env b)
    | CNeg a -> -eval env a
    | CNot a -> if eval env a = 0 then 1 else 0
    | CLog2 a -> log2_floor (eval env a)
    | CIsqrt a -> isqrt_floor (eval env a)
end

(* Infix constructors for the builder DSL. *)
module Infix = struct
  let i n = Int n
  let rank = Rank
  let np = Nprocs
  let p name = Param name
  let v name = Var name
  let ( + ) a b = Bin (Add, a, b)
  let ( - ) a b = Bin (Sub, a, b)
  let ( * ) a b = Bin (Mul, a, b)
  let ( / ) a b = Bin (Div, a, b)
  let ( % ) a b = Bin (Mod, a, b)
  let ( lsl ) a b = Bin (Shl, a, b)
  let ( asr ) a b = Bin (Shr, a, b)
  let ( < ) a b = Bin (Lt, a, b)
  let ( <= ) a b = Bin (Le, a, b)
  let ( > ) a b = Bin (Gt, a, b)
  let ( >= ) a b = Bin (Ge, a, b)
  let ( = ) a b = Bin (Eq, a, b)
  let ( <> ) a b = Bin (Ne, a, b)
  let ( && ) a b = Bin (And, a, b)
  let ( || ) a b = Bin (Or, a, b)
  let ( lxor ) a b = Bin (Xor, a, b)
  let min_ a b = Bin (Min, a, b)
  let max_ a b = Bin (Max, a, b)
  let log2 a = Log2 a
  let isqrt a = Isqrt a
end
