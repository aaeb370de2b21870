(** SST analogue (case study VI-D.2): the handleEvent loop scans a
    pendingRequests array that grows with the peer count; [optimized] is
    the paper's array -> indexed-map fix. *)

val make : ?optimized:bool -> unit -> Scalana_mlang.Ast.program
