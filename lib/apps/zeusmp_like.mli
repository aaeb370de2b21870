(** Zeus-MP analogue (case study VI-D.1): boundary-value loops executed by
    a quarter of the ranks propagate through non-blocking halo waitalls
    into the timestep allreduce. [optimized] applies the paper's fixes. *)

val make : ?optimized:bool -> unit -> Scalana_mlang.Ast.program
