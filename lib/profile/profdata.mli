(** The artifact of one profiled run: per-vertex rows of per-rank
    performance vectors, compressed communication records,
    indirect-call resolutions and accounting.  The PPG reads the rows
    and the records in place. *)

open Scalana_runtime

type icall_resolution = { callsite_vertex : int; target : string }

(** One vertex's performance vectors (Section III-B1) across ranks: cell
    [r] of each array is rank [r]'s.  A cell is reported when it holds a
    sample or an MPI call; every writer adds one of the two.  Unreported
    cells hold zeros and {!Scalana_runtime.Pmu.zero}. *)
type row = {
  times : float array;  (** estimated seconds attributed by sampling *)
  samples : int array;
  pmu : Pmu.t array;  (** sampled counters *)
  waits : float array;  (** exact accumulated MPI wait seconds *)
  calls : int array;  (** MPI invocations *)
}

type t = {
  nprocs : int;
  mutable rows : row option array;
      (** by vertex id; a row is allocated on the vertex's first report *)
  comm : Commrec.t;
  icalls : (icall_resolution, unit) Hashtbl.t;
  mutable total_samples : int;
  mutable unattributed_samples : int;
  mutable elapsed : float;
  mutable mpi_calls_seen : int;
  mutable records_taken : int;
  mutable effective_nprocs : float;
      (** time-weighted mean membership of an elastic session; equals
          [float_of_int nprocs] for a fixed-membership run, so fitting
          against it is always sound *)
}

val create : nprocs:int -> t

(** [vertex]'s row, [None] when no rank reported there. *)
val row : t -> vertex:int -> row option

(** Did [rank] report in this row? *)
val reported : row -> rank:int -> bool

(** Add [samples] timer samples worth [time] seconds to ([rank],
    [vertex]), and their counter deltas [scale · pmu] (one new cell
    record: see {!Scalana_runtime.Pmu.add_scaled}). *)
val add_sampled :
  t ->
  rank:int ->
  vertex:int ->
  time:float ->
  samples:int ->
  scale:float ->
  pmu:Pmu.t ->
  unit

(** Add one MPI call and its exact wait to ([rank], [vertex]). *)
val add_wait : t -> rank:int -> vertex:int -> wait:float -> unit

val record_icall : t -> callsite_vertex:int -> target:string -> unit
val icall_resolutions : t -> icall_resolution list

(** Vertices with data on any rank, sorted. *)
val touched_vertices : t -> int list

(** Fraction of ranks reporting at [vertex] (1.0 = all). *)
val coverage : t -> vertex:int -> float

(** Fold one elastic epoch's profile into the session-wide artifact:
    epoch-local rank [l] lands on global rank [map l].  Counters add,
    [elapsed] takes the max (epoch clocks are absolute). *)
val merge_renumbered : into:t -> map:(int -> int) -> t -> unit

(** Serialized size model: 24 bytes per reported cell plus the comm
    records and icall resolutions. *)
val storage_bytes : t -> int
