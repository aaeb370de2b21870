(** Program Performance Graph (Section III-C): the contracted PSG shared
    by all ranks, each vertex's time and sampled wait on every rank, and
    the inter-process communication-dependence edges recorded at
    runtime.

    The store is columnar: time and wait are flat row-major columns over
    (touched vertex, rank) cells, so a vertex's across-rank values are
    one contiguous slice, read in place through {!row_offset} and the
    column accessors.  Cells hold exactly the values the pre-columnar
    boxed store served (the differential suite in [test/test_ppg.ml]
    pins this), including 0.0 for cells no rank reported and verbatim
    NaN/negative payloads for poisoned cells.  Every other counter
    (samples, calls, PMU) stays in the [Profdata] the store is built
    from. *)

open Scalana_psg
open Scalana_profile

type comm_edge = {
  send_rank : int;
  send_vertex : int;
  has_wait : bool;
  max_wait : float;
  hits : int;
}

type t = {
  psg : Psg.t;
  nprocs : int;
  effective_nprocs : float;
  vids : int array;  (** row -> vertex id, ascending *)
  rows : (int, int) Hashtbl.t;  (** vertex id -> row *)
  times : float array;  (** cell (row, rank) at [row * nprocs + rank] *)
  waits : float array;
  row_present : int array;  (** row -> number of reporting ranks *)
  total_time : float;
  incoming : (int * int, comm_edge list) Hashtbl.t;
  coll_late : (int, int) Hashtbl.t;
}

val build : psg:Psg.t -> Profdata.t -> t

(** Incoming communication dependence of (rank, vertex). *)
val incoming_edges : t -> rank:int -> vertex:int -> comm_edge list

(** Only edges that carried an actual wait (the pruned set). *)
val waiting_edges : t -> rank:int -> vertex:int -> comm_edge list

(** The waiting edge with the largest observed wait, if any. *)
val critical_edge : t -> rank:int -> vertex:int -> comm_edge option

(** Dominant last-arriving rank at a collective vertex. *)
val coll_late_rank : t -> vertex:int -> int option

(** Element offset of [vertex]'s row in both columns ([nprocs] cells
    wide), for allocation-free slice scans; [None] when no rank reported
    at [vertex] (every cell of such a row would read 0.0). *)
val row_offset : t -> vertex:int -> int option

(** The time column behind [row_offset] slices (waits are read through
    {!total_wait}).  Read-only by convention: mutating it corrupts the
    store. *)
val times_col : t -> float array

(** Sampled wait summed across ranks at [vertex] — the profiler-side
    number the timeline-replay wait-state attribution is checked
    against. *)
val total_wait : t -> vertex:int -> float

(** Fraction of ranks reporting at [vertex] (degraded-mode coverage).
    Always finite: 0.0 when every rank was lost, never NaN. *)
val coverage : t -> vertex:int -> float

(** Total sampled time across all ranks and vertices; poisoned
    (NaN/negative) values are quarantined, not summed. *)
val total_time : t -> float

val n_comm_edges : t -> int

(** Bytes retained by the store itself (the two columns, per-row
    counts and dependence tables), beyond the profile it was built
    from. *)
val storage_bytes : t -> int

(** Vertices any rank reported on, sorted — the detectors' iteration
    domain. *)
val touched_vertices : t -> int list

(** Time-weighted mean membership of the producing session (differs
    from [nprocs] only for elastic runs). *)
val effective_nprocs : t -> float
