(** Hardware performance-counter model (the PAPI substrate): retired
    instruction classes, cycles and cache misses, derived from workload
    descriptors by {!Costmodel}. *)

type t = {
  tot_ins : float;
  tot_lst_ins : float;
  tot_cyc : float;
  cache_miss : float;
  fp_ins : float;
}

val zero : t
val add : t -> t -> t
val scale : float -> t -> t

type metric = Tot_ins | Tot_lst_ins | Tot_cyc | Cache_miss | Fp_ins

val get : metric -> t -> float
