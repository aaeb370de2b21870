(** The ScalAna runtime tool: PAPI-style timer sampling plus PMPI-style
    interposition with random-sampling instrumentation and graph-guided
    compression. *)

open Scalana_psg
open Scalana_runtime

(** The settings a run may vary.  The tool's modelled costs (150 µs per
    sample, 5 µs per comm record, 0.5 µs per MPI call) and the 20 µs
    wait threshold that marks an edge as waiting are constants of this
    module, calibrated once. *)
type config = {
  freq : float;  (** sampling frequency in Hz (paper: 200) *)
  record_prob : float;  (** random-sampling instrumentation threshold *)
  seed : int;
}

(** Raises [Invalid_argument] naming [what] unless [freq] is a usable
    sampling frequency: finite, positive, and slow enough that the
    sampling period exceeds one sample's modelled cost (below
    6,666.7 Hz).  A faster timer would spend every tick in its own
    handler, and a period below half an ulp of the clock never
    advances.  {!create} checks its config with it. *)
val check_freq : what:string -> float -> unit

type t

(** One profiler serves one run.  Raises [Invalid_argument] unless
    {!check_freq} accepts [freq]. *)
val create : ?config:config -> index:Index.t -> nprocs:int -> unit -> t
val data : t -> Profdata.t

(** The {!Instrument.t} hook record to attach to a simulator run; its
    sample gate is the per-rank next-tick array. *)
val tool : t -> Instrument.t
