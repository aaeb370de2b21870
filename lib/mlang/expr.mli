(** Integer expression language for MiniMPI.

    Expressions compute context-dependent values: loop trip counts,
    message sizes and peers, branch conditions, and per-statement workload
    descriptors. Booleans are 0/1 integers. *)

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
  | Rank  (** the executing process rank *)
  | Nprocs  (** the job scale *)
  | Param of string  (** program-level problem-size parameter *)
  | Var of string  (** loop variable, [let] binding or function argument *)
  | Bin of binop * t * t
  | Neg of t
  | Not of t
  | Log2 of t  (** floor(log2 e); 0 for e <= 1 *)
  | Isqrt of t  (** floor(sqrt e); 0 for e <= 0 *)

exception Eval_error of string

type env

val env :
  rank:int ->
  nprocs:int ->
  params:(string * int) list ->
  vars:(string * int) list ->
  env

(** [eval env e] evaluates [e]; raises {!Eval_error} on unbound names or
    division by zero. *)
val eval : env -> t -> int

(** Free [Var] names of an expression (parameters excluded). *)
val free_vars : t -> string list

(** [Param] names referenced by an expression. *)
val params : t -> string list

(** True when the expression has the same value on every rank for a fixed
    job scale (no [Rank], no [Var]). *)
val is_static : t -> bool

val depends_on_rank : t -> bool

(** True when [Nprocs] appears anywhere in the expression — the syntactic
    trigger of the static scaling-loss lints. *)
val depends_on_nprocs : t -> bool

val binop_name : binop -> string
val equal : t -> t -> bool
val pp : t Fmt.t
val to_string : t -> string

(** Compiled expression form used by the runtime's hot loop: [Var]s are
    resolved to integer slots in a flat frame array, [Param]/[Nprocs] are
    folded to their per-run constant values, and constant subtrees are
    folded at compile time.  Error behaviour matches {!eval} exactly:
    unbound names and division by zero surface lazily at evaluation time
    with identical messages. *)
module Compiled : sig
  type expr

  (** Per-frame evaluation context. [c_vars.(slot)] is the current value
      of a variable slot; [c_bound] marks slots that have been assigned
      (['\000'] = unbound). *)
  type env = { c_rank : int; c_vars : int array; c_bound : Bytes.t }

  (** [compile ~nprocs ~param ~var_slot e] resolves and folds [e].
      [param name] returns the per-run value of a program parameter
      ([None] compiles to a lazy unbound-parameter error); [var_slot
      name] returns the frame slot of a variable, or a negative value to
      compile a lazy unbound-variable error. *)
  val compile :
    nprocs:int ->
    param:(string -> int option) ->
    var_slot:(string -> int) ->
    t ->
    expr

  (** Raises {!Eval_error} exactly where {!val-eval} on the source
      expression would. *)
  val eval : env -> expr -> int

  (** The folded constant value, when compilation reduced the whole
      expression to one. *)
  val const : expr -> int option
end

(** Infix constructors for the builder DSL. *)
module Infix : sig
  val i : int -> t
  val rank : t
  val np : t
  val p : string -> t
  val v : string -> t
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( % ) : t -> t -> t
  val ( lsl ) : t -> t -> t
  val ( asr ) : t -> t -> t
  val ( < ) : t -> t -> t
  val ( <= ) : t -> t -> t
  val ( > ) : t -> t -> t
  val ( >= ) : t -> t -> t
  val ( = ) : t -> t -> t
  val ( <> ) : t -> t -> t
  val ( && ) : t -> t -> t
  val ( || ) : t -> t -> t
  val ( lxor ) : t -> t -> t
  val min_ : t -> t -> t
  val max_ : t -> t -> t
  val neg : t -> t
  val log2 : t -> t
  val isqrt : t -> t
end
