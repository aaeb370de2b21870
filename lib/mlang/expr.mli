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

(** Raised by {!Compiled.eval}; the message names the unbound variable
    or parameter, or says ["division by zero"] / ["modulo by zero"]. *)
exception Eval_error of string

(** Free [Var] names of an expression (parameters excluded). *)
val free_vars : t -> string list

(** [Param] names referenced by an expression. *)
val params : t -> string list

(** True when the expression has the same value on every rank for a fixed
    job scale (no [Rank], no [Var]). *)
val is_static : t -> bool

(** Kept: a property-tested predicate; removing it would delete its test. *)
val depends_on_rank : t -> bool

(** True when [Nprocs] appears anywhere in the expression — the syntactic
    trigger of the static scaling-loss lints. *)
val depends_on_nprocs : t -> bool

val equal : t -> t -> bool
val pp : t Fmt.t
val to_string : t -> string

(** The expression evaluator, shared by the simulator, the static
    walker and the linter: [Var]s are resolved to integer slots in a flat
    frame array, [Param]/[Nprocs] are folded to their per-run constant
    values, and constant subtrees are folded at compile time.

    Error contract: compiling never raises.  An unbound variable, an
    unbound parameter, a division by zero and a modulo by zero each
    raise {!Eval_error} when evaluation reaches them, and only then:
    ["unbound variable \"x\""], ["unbound parameter \"x\""],
    ["division by zero"], ["modulo by zero"]. *)
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

  (** Raises {!Eval_error} as described above. *)
  val eval : env -> expr -> int

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

  (** Kept: the DSL keeps one operator per binary operator. *)
  val ( <= ) : t -> t -> t
  val ( > ) : t -> t -> t

  (** Kept: the DSL keeps one operator per binary operator. *)
  val ( >= ) : t -> t -> t
  val ( = ) : t -> t -> t

  (** Kept: the DSL keeps one operator per binary operator. *)
  val ( <> ) : t -> t -> t

  (** Kept: the DSL keeps one operator per binary operator. *)
  val ( && ) : t -> t -> t
  val ( || ) : t -> t -> t
  val ( lxor ) : t -> t -> t
  val min_ : t -> t -> t
  val max_ : t -> t -> t
  val log2 : t -> t
  val isqrt : t -> t
end
