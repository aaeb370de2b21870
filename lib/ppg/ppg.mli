(** Program Performance Graph (Section III-C): the contracted PSG shared
    by all ranks, each vertex's time and sampled wait on every rank, and
    the inter-process communication-dependence edges recorded at
    runtime.

    The PPG reads its profile in place: a vertex's across-rank times and
    waits are the profile's own {!Scalana_profile.Profdata.row} arrays,
    and an edge is an index into the profile's frozen
    {!Scalana_profile.Commrec} columns, read through its accessors.
    [build] adds only the touched-vertex list, the edges grouped by
    receiving rank (offsets into those columns), the late-rank table and
    the whole-run total.  A profile is never written after its PPG is
    built: writing it would change the PPG under its readers. *)

open Scalana_psg
open Scalana_profile

type t = {
  psg : Psg.t;
  nprocs : int;
  data : Profdata.t;  (** the profile, read in place *)
  vids : int array;  (** touched vertices, ascending *)
  total_time : float;
  rank_start : int array;
      (** rank [r] received edges [by_rank.(rank_start.(r))] up to
          [by_rank.(rank_start.(r + 1) - 1)] *)
  by_rank : int array;
      (** edge indices grouped by receiving rank, in the profile's
          reading order within a rank *)
  receivers : int;  (** distinct (receiving rank, vertex) pairs *)
  coll_late : (int, int) Hashtbl.t;
}

val build : psg:Psg.t -> Profdata.t -> t

(** Incoming communication dependence of (rank, vertex): edge indices
    into the profile's {!Scalana_profile.Commrec} columns, in reading
    order. *)
val incoming_edges : t -> rank:int -> vertex:int -> int list

(** The waiting edge with the largest observed wait, if any; the first
    in reading order among equal waits. *)
val critical_edge : t -> rank:int -> vertex:int -> int option

(** Dominant last-arriving rank at a collective vertex. *)
val coll_late_rank : t -> vertex:int -> int option

(** [vertex]'s time on every rank, indexed by rank; [None] when no rank
    reported at [vertex] (every cell would read 0.0).  Unreported cells
    read 0.0 and poisoned cells keep their NaN/negative payloads.  This
    is the profile's own array: read-only by convention. *)
val times : t -> vertex:int -> float array option

(** Sampled wait summed across ranks at [vertex] — the profiler-side
    number the timeline-replay wait-state attribution is checked
    against. *)
val total_wait : t -> vertex:int -> float

(** Fraction of ranks reporting at [vertex] (degraded-mode coverage).
    Always finite: 0.0 when every rank was lost, never NaN. *)
val coverage : t -> vertex:int -> float

(** Total sampled time across all ranks and vertices: each rank's
    reported cells in ascending vertex order, then the ranks in order;
    poisoned (NaN/negative) values are quarantined, not summed. *)
val total_time : t -> float

(** Distinct (receiving rank, vertex) pairs with an incoming edge. *)
val n_comm_edges : t -> int

(** Bytes the PPG owns beyond its profile: the touched-vertex list, the
    edge grouping and the late-rank table. *)
val storage_bytes : t -> int

(** Vertices any rank reported on, sorted — the detectors' iteration
    domain. *)
val touched_vertices : t -> int list

(** Time-weighted mean membership of the producing session (differs
    from [nprocs] only for elastic runs). *)
val effective_nprocs : t -> float
