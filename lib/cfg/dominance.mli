(** Dominator analysis over a {!Cfg.t} (Cooper–Harvey–Kennedy). *)

type t

val compute : Cfg.t -> t

(** Immediate dominator; [None] for the entry block.
    Kept: the immediate-dominator tree [dominates] walks, which the dominance
    test checks. *)
val idom : t -> Cfg.node_id -> Cfg.node_id option

(** [dominates t a b] — does [a] dominate [b]? Reflexive. *)
val dominates : t -> Cfg.node_id -> Cfg.node_id -> bool

(** Children lists of the dominator tree, indexed by block id. *)
val dominator_tree : t -> Cfg.node_id list array
