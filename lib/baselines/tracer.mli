(** Tracing baseline (the Scalasca/Vampir role) as a cost model: charges
    per-event wrapper time and accounts trace bytes for every region
    with its peer payloads — including the sub-regions a
    compiler-instrumented tracer would log inside coarse computation
    blocks.  Nothing is retained: the run's event record is the rank
    timeline ({!Scalana_profile.Timeline}). *)

open Scalana_runtime

type t

val create : unit -> t
val tool : t -> Instrument.t

(** Trace records the run would have written, sub-regions included. *)
val n_events : t -> int

val storage_bytes : t -> int
