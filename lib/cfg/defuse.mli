(** Definitions and uses of MiniMPI names, with the {!Dataflow}
    instance built on them: reaching definitions, distilled into
    per-function def-use chains.

    Two namespaces carry dataflow: scalar bindings (loop variables, [let]
    bindings, function parameters — all referenced through [Expr.Var])
    and MPI request handles ([Isend]/[Irecv] define a handle,
    [Wait]/[Waitall] use it).  Program parameters ([Expr.Param]) are
    compile-time constants and are excluded. *)

open Scalana_mlang

type sym =
  | Var of string  (** loop variable, [let] binding or function parameter *)
  | Req of string  (** MPI request handle *)

(** Kept: the request-use extraction the chains are built from, tested per MPI
    call kind. *)
val mpi_uses : Ast.mpi_call -> sym list

(** Kept: the request-definition extraction the chains are built from, tested
    per MPI call kind. *)
val mpi_defs : Ast.mpi_call -> sym list

(** Def-use chains of one function, computed from the reaching-definitions
    solution.  Definition sites are identified by [(sym, Loc.t)]; function
    parameters are defined at the function's own location. *)
module Chains : sig
  type t

  val of_func : Ast.func -> t

  val uses_at : t -> Loc.t -> (sym * Loc.t list) list
  (** Symbols used by the statement at [loc], each with the sorted
      definition sites reaching that use (several when control flow
      merges). *)

  val defs_reaching : t -> loc:Loc.t -> sym -> Loc.t list
  (** Definition sites of [sym] reaching its use at [loc].
      Kept: the def-use chain query, tested statement by statement. *)

  val unused_defs : t -> (sym * Loc.t) list
  (** Definition sites no use is reached by — for request handles, an
      [Isend]/[Irecv] that is never waited on. *)

  val n_defs : t -> int
  val n_uses : t -> int
end
