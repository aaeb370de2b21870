(** Call-path profiling baseline (the HPCToolkit role): timer sampling
    with full unwinding into a CCT; reports bottleneck points (hot
    contexts, imbalance) without dependence analysis. *)

open Scalana_runtime

type t

(** A profiler sampling at the paper's 200 Hz, each sample costing
    400 µs (a full unwind, slightly above ScalAna's). *)
val create : nprocs:int -> unit -> t
val tool : t -> Instrument.t

(** Kept: the calling-context tree [hotspots] merges; its test pins node
    storage and merging. *)
val cct : t -> Cct.t
val storage_bytes : t -> int

type hotspot = {
  hs_loc : Scalana_mlang.Loc.t;
  hs_time : float;
  hs_is_mpi : bool;
  hs_imbalance : float;  (** max/min across ranks; infinite when some
                             ranks never execute the context *)
}

(** Top contexts by time — symptoms, deliberately without causality.
    Kept: the call-path baseline's answer (symptoms, no causality) that the
    paper contrasts with root causes. *)
val hotspots : ?top:int -> t -> hotspot list
