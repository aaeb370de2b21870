(** Canonical concrete-syntax renderer for MiniMPI programs.

    The output parses back with {!Parser}, and statements are emitted on
    exactly the line recorded in their location (blank-line padding), so
    rendered sources line up with analysis reports. *)

val render : Ast.program -> string
val render_lines : Ast.program -> string list

(** [snippet p loc] returns the rendered source lines around [loc],
    prefixed with line numbers — the viewer's code window.  Raises
    [Invalid_argument] on a negative [context]. *)
val snippet : ?context:int -> Ast.program -> Loc.t -> string list

val pp_mpi : Ast.mpi_call Fmt.t
val pp_peer : Ast.peer Fmt.t
val pp_tag : Ast.tag Fmt.t
