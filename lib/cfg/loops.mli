(** Natural-loop detection over a {!Cfg.t} from dominance back edges. *)

type loop = {
  header : Cfg.node_id;
  latch : Cfg.node_id;
  body : Cfg.node_id list;  (** sorted; includes header and latch *)
  depth : int;  (** 1 = outermost *)
}

type t

val compute : Cfg.t -> t

(** Every natural loop, one per back edge.
    Kept: the CFG tests check that each loop's body holds its header and
    latch. *)
val loops : t -> loop list
val count : t -> int
val max_depth : t -> int
