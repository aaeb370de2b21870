(** Well-formedness checks for MiniMPI programs: unresolved or mis-typed
    calls, unbound variables/parameters, dangling request handles,
    out-of-range localities. *)

type error = { loc : Loc.t; msg : string }

val error_to_string : error -> string
val run : Ast.program -> (unit, error list) result

(** Raises [Invalid_argument] with all messages when validation fails. *)
val run_exn : Ast.program -> unit
