(** Wait-state attribution: replay a captured rank timeline
    ({!Scalana_profile.Timeline}) and classify every blocked MPI
    interval — {e who} caused each second a rank spent waiting.

    Classes follow the classic wait-state taxonomy:

    - {e late sender} — a receive-like op blocked because (at least one
      of) its matched sends was posted after the receiver entered the
      op; the blame goes to the latest-posting peer;
    - {e late receiver} — the op blocked although every matched send was
      already posted when it was entered (the receiver arrived late and
      paid residual transfer/drain time), or a send-side op blocked on
      its destinations not being ready; the blame stays with the
      blocked rank resp. the send destinations;
    - {e collective imbalance} — a collective blocked waiting for the
      last arriving rank, which takes the blame.

    Attribution is exact with respect to the recorded intervals: each
    blocked interval's whole wait is assigned to exactly one class.
    Blocked time whose interval was lost to timeline truncation stays
    {e unattributed} and is reported as such — the attributed fraction
    is always stated against the true per-rank blocked totals, which the
    recorder accumulates past its event cap. *)

open Scalana_profile

type clazz = Late_sender | Late_receiver | Collective_imbalance

val class_name : clazz -> string

(** Attributed wait aggregated per (PSG vertex, class). *)
type entry = {
  ws_vertex : int option;  (** None when the op's vertex was unresolvable *)
  ws_class : clazz;
  ws_time : float;  (** blocked seconds attributed here *)
  ws_ops : int;  (** blocked MPI intervals contributing *)
  ws_culprits : (int * float) list;
      (** blamed rank -> seconds caused, sorted by seconds descending *)
}

type t = {
  ws_nprocs : int;
  entries : entry list;  (** sorted by [ws_time] descending *)
  class_totals : (clazz * float) list;  (** every class, fixed order *)
  rank_blocked : float array;  (** true blocked seconds (never truncated) *)
  rank_attributed : float array;
  unattributed : float;  (** blocked seconds with no surviving interval *)
  truncated : int;  (** timeline events lost to the recorder cap *)
}

(** [analyze timeline] replays the timeline's MPI intervals.  A peer's
    post within 20 µs of the op's start is not late.  When
    {!Scalana_obs.Obs} collection is enabled, emits [waitstate.<class>]
    op counters and [waitstate.<class>_seconds] gauges. *)
val analyze : Timeline.t -> t

(** Attributed / blocked, in [0, 1]; [1.0] when nothing was blocked. *)
val attributed_fraction : t -> float

(** Attributed wait per class at one vertex (classes with time only) —
    the corroborating evidence root-cause reporting attaches to a
    detected vertex. *)
val vertex_evidence : t -> vertex:int -> (clazz * float) list
