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

(** [add_scaled a k b] is [a + k·b], field by field: each field of [b]
    is multiplied by [k], then added to [a]'s.  One record, where adding
    a scaled copy takes two.  With [k = 1.0] it adds [b] unscaled, as
    [add a b] does ([1.0 *. x] is [x]). *)
val add_scaled : t -> float -> t -> t

type metric = Tot_ins | Tot_lst_ins | Tot_cyc | Cache_miss | Fp_ins

val get : metric -> t -> float
