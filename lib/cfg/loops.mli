(** Natural-loop detection over a {!Cfg.t} from dominance back edges. *)

type loop = {
  header : Cfg.node_id;
  latch : Cfg.node_id;
  body : Cfg.node_id list;  (** sorted; includes header and latch *)
  depth : int;  (** 1 = outermost *)
}

type t

val compute : Cfg.t -> t
val loops : t -> loop list
val count : t -> int
val max_depth : t -> int
