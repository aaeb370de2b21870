(** Generic iterative forward dataflow over {!Cfg.t}: a worklist solver
    with a pluggable join-semilattice and per-block transfer function,
    propagating facts from the entry over successor edges.  {!Defuse}
    instantiates it with reaching definitions. *)

module type LATTICE = sig
  type t

  val bottom : t
  (** Initial fact everywhere; must be a join identity. *)

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Solver (L : LATTICE) : sig
  type result = {
    input : L.t array;  (** fact entering each block *)
    output : L.t array;  (** fact leaving each block *)
    iterations : int;
        (** worklist pops until the fixed point — bounded by
            [n_blocks × lattice height] on any terminating instance, and
            close to [n_blocks] on reducible graphs thanks to the
            reverse-postorder seeding *)
  }

  (** [solve ~entry_fact ~transfer cfg] iterates [transfer id input] to
      a fixed point from [entry_fact] at the entry block. *)
  val solve :
    entry_fact:L.t -> transfer:(Cfg.node_id -> L.t -> L.t) -> Cfg.t -> result
end
