(** Program Structure Graph: an ordered tree (parent = control dependence,
    sibling order = execution order / data dependence) plus back edges for
    recursive calls. *)

open Scalana_mlang

type t

val create : unit -> t

(** Add a root vertex for function [func]; the first root added becomes
    the graph root. *)
val add_root : t -> func:string -> loc:Loc.t -> int

val add_vertex :
  t ->
  parent:int ->
  kind:Vertex.kind ->
  loc:Loc.t ->
  func:string ->
  callpath:Loc.t list ->
  int

(** Replace the kind of an existing vertex (used by contraction merging
    and indirect-call refinement). *)
val set_kind : t -> int -> Vertex.kind -> unit

val add_cycle_edge : t -> callsite:int -> entry:int -> unit
val cycle_target : t -> int -> int option

(** Record an explicit data-dependence edge from the def-use analysis:
    vertex [use] reads a value defined at vertex [def].  Self edges and
    duplicates are ignored. *)
val add_data_dep : t -> use:int -> def:int -> unit

(** Defining vertices of [use]'s recorded data dependences, in insertion
    order; empty when the def-use pass has not annotated the graph. *)
val data_deps : t -> int -> int list

val n_data_dep_edges : t -> int

(** Attach the symbolic scaling prediction of the static
    communication-complexity analysis to a vertex (plain data — the PSG
    is marshalled into session artifacts). *)
val set_static_pred : t -> int -> Scalana_cfg.Commcost.pred -> unit

val static_pred : t -> int -> Scalana_cfg.Commcost.pred option
val n_static_preds : t -> int
val root : t -> int
val vertex : t -> int -> Vertex.t
val vertex_opt : t -> int -> Vertex.t option
val n_vertices : t -> int

(** Children in execution order. *)
val children : t -> int -> int list

val parent : t -> int -> int option

(** Previous sibling in execution order — the backward data-dependence
    step of Algorithm 1. *)
val prev_sibling : t -> int -> int option

(** Kept: sibling navigation mirroring [prev_sibling]; the navigation test
    walks both. *)
val next_sibling : t -> int -> int option

(** Last vertex of a body: where backtracking enters a Loop/Branch. *)
val last_child : t -> int -> int option

val iter : (Vertex.t -> unit) -> t -> unit
val fold : ('a -> Vertex.t -> 'a) -> 'a -> t -> 'a
val find_all : (Vertex.t -> bool) -> t -> Vertex.t list

(** True when the subtree contains an MPI vertex or an unresolved
    callsite (which may perform MPI at runtime). *)
val subtree_has_mpi : t -> int -> bool

val subtree_vertices : t -> int -> int list

val ancestors : t -> int -> int list
val pp : t Fmt.t

val memory_bytes : t -> int
