(** Computation cost model: maps a workload descriptor to wall time and
    PMU counters on a given core. *)

type t = {
  ghz : float;  (** core clock in GHz *)
  ipc : float;  (** retired instructions per cycle on cache hits *)
  cache_miss_penalty : float;  (** extra cycles per missing access *)
  core_speed : int -> float;
      (** per-rank multiplier on memory service time (1.0 = nominal) *)
}

val default : t

(** Heavy-tailed heterogeneity: most cores carry a small jitter, one in
    sixteen serves memory twice as slowly — small jobs land on fast
    cores only, so the loss grows with scale (the Nekbone case's
    shape). *)
val heterogeneous : unit -> t

(** Seconds [rank] spends re-touching [bytes] of repartitioned state
    after an elastic membership change: a memory-bound pass at
    cache-line granularity at the rank's own memory speed.  The
    repartitioning-cost event of the elastic recovery protocol. *)
val repartition_cost : t -> rank:int -> bytes:int -> float

(** Wall seconds of one execution of a workload on [rank], given its
    evaluated counts; writes the five PMU counters into [counters]
    (length >= 5, in [Pmu.t] field order: tot_ins, tot_lst_ins, tot_cyc,
    cache_miss, fp_ins).  Allocation-free. *)
val comp_cost_into :
  t ->
  rank:int ->
  flops:int ->
  mem:int ->
  ints:int ->
  locality:float ->
  counters:float array ->
  float
