(** Program call graph (PCG): direct and indirect call edges, recursion
    detection via Tarjan SCCs, reachability from main. *)

open Scalana_mlang

type edge_kind = Direct | Indirect

type edge = {
  caller : string;
  callee : string;
  kind : edge_kind;
  site : Loc.t;
}

type t

val build : Ast.program -> t
val callees : t -> string -> edge list
val callers : t -> string -> edge list
val is_recursive : t -> string -> bool
val in_same_scc : t -> string -> string -> bool

(** Functions reachable from the program's main. *)
val reachable : t -> string list

(** Callee-first flattening of the SCC condensation. *)
val topo_order : t -> string list

(** Kept: the SCC decomposition the recursion tests pin (recursive SCCs make
    [Commcost] counts Top). *)
val scc_count : t -> int
