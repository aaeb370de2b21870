(** Cross-scale container: PPGs of the same program at several job
    scales, the input of non-scalable vertex detection (the PSG is
    scale-invariant, so vertices align across runs). *)

open Scalana_profile

type t = {
  psg : Scalana_psg.Psg.t;
  runs : (int * Ppg.t) list;  (** sorted by nprocs ascending *)
}

(** Build PPGs from raw profiles and sort by scale.  With [pool], the
    per-scale builds run in parallel (one independent PPG per scale);
    the result is identical to the sequential build. *)
val create :
  ?pool:Scalana_pool.Pool.t ->
  psg:Scalana_psg.Psg.t ->
  (int * Profdata.t) list ->
  t

val scales : t -> int list
val largest : t -> int * Ppg.t
val ppg_at : t -> nprocs:int -> Ppg.t option

(** The effective process count behind the run at nominal scale
    [nprocs]: an elastic session's time-weighted mean membership, the
    nominal value itself otherwise.  Log-log fits use this axis. *)
val effective_scale : t -> nprocs:int -> float

(** Vertices observed in any run, sorted. *)
val touched_vertices : t -> int list
