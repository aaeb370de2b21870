(** Application-level rank timeline: an {!Scalana_runtime.Instrument}
    tool recording per-rank compute intervals, MPI enter/exit events and
    matched messages during a simulated run.

    The recorder charges {e zero} tool overhead onto the simulated
    clocks — it is an idealized observer, so a profiled run carrying it
    next to the regular profiler keeps exactly the clocks it has
    without it ([Scalana.Pipeline.run] records this way), a replay of
    a stored profiled run reproduces that run's clocks, and the captured
    timeline lines up with the session's per-vertex numbers.

    Memory is bounded two ways: graph-guided compression merges
    consecutive compute intervals that resolve to the same PSG vertex
    (loop iterations collapse into one slice per visit streak), and a
    hard [max_events] cap drops further events with explicit per-rank
    truncation accounting.  Per-rank blocked-time totals keep
    accumulating past the cap, so wait-state attribution can always be
    reported as a fraction of the {e true} blocked time.

    The timeline is columnar: the recorder appends each field to its own
    unboxed column, growing in fixed-size blocks that are never copied,
    and records nothing per event on the heap beyond those entries.
    Dependences and send destinations are rows of side columns that
    each interval indexes by offset; a message is one of those
    dependence rows.  {!capture} hands the columns to the timeline
    uncopied and adds the two orders below.  Only this module knows the
    layout: readers go through the accessors. *)

open Scalana_psg
open Scalana_runtime

type config = { max_events : int  (** intervals + messages recorded *) }

type recorder

val create : ?config:config -> index:Index.t -> nprocs:int -> unit -> recorder

(** The instrument hooks; attach via [Exec.config ~tools],
    [Prof.run ~extra_tools] or [Prof.run_with_retry ~extra_tools] (one
    recorder per attempt).  All hooks return 0.0 overhead. *)
val tool : recorder -> Instrument.t

(** What the [on_mpi_exit] hook does once it has resolved the call's
    vertex: add the call's wait to [rank]'s blocked total, append the
    MPI interval, and a message per matched send while the cap allows.
    Kept: hand-built timelines in the wait-state and trace tests are
    recorded through it. *)
val append_mpi :
  recorder -> rank:int -> vertex:int option -> Instrument.mpi_exit -> unit

(** A captured timeline.  Intervals are numbered by position, rank by
    rank; each rank's come in the order they were recorded, which is
    (start, stop) order because a rank's clock never runs backwards, so
    a rank's stops never decrease either.  Messages are numbered in
    (send time, src, dst, tag) order. *)
type t

(** Freeze the recorder, after its run, into a timeline.  Intervals are
    laid out rank by rank, not sorted; only messages are, with a stable
    merge sort ([Array.stable_sort]): messages that compare equal keep
    their newest-first recording order. *)
val capture : recorder -> t

val nprocs : t -> int
val elapsed : t -> float

(** Blocked seconds of a rank, never truncated. *)
val blocked : t -> int -> float

(** Events of a rank lost to the [max_events] cap. *)
val dropped : t -> int -> int

val total_dropped : t -> int

(** Raw intervals removed by vertex-keyed compression. *)
val merged : t -> int

(** {2 Intervals, by position} *)

val n_intervals : t -> int

(** Position of a rank's first interval; [rank_first t (nprocs t)] is
    [n_intervals t]. *)
val rank_first : t -> int -> int

val rank : t -> int -> int

(** Contracted-PSG vertex, when resolvable. *)
val vertex : t -> int -> int option

val start : t -> int -> float
val stop : t -> int -> float

(** Raw intervals folded into this one.
    Kept: the exporter's [merged] slice argument; the compression and
    digest tests read it per interval. *)
val merges : t -> int -> int

val is_mpi : t -> int -> bool

(** The compute label (["comp"] when unlabelled) or the MPI call's
    [Ast.mpi_name]. *)
val name : t -> int -> string

(** Blocked seconds inside an MPI interval; [0.0] for compute. *)
val wait : t -> int -> float

(** Matched sends of an MPI interval. *)
val n_deps : t -> int -> int

(** [dep t i j] is the [j]th matched send of interval [i]: (peer rank,
    peer post time, arrival time). *)
val dep : t -> int -> int -> int * float * float

(** Destinations of the sends an MPI interval posted. *)
val send_dests : t -> int -> int list

(** A collective's (arrival, start when the last rank arrived, last
    arriving rank); [None] for any other interval. *)
val coll : t -> int -> (float * float * int) option

(** {2 Matched point-to-point messages, by position} *)

val n_messages : t -> int

(** Sending rank.
    Kept: the exporter's flow arrows read it; the capture-order and
    digest tests compare messages field by field. *)
val msg_src : t -> int -> int

(** Receiving rank.
    Kept: the exporter's flow arrows read it; the capture-order and
    digest tests compare messages field by field. *)
val msg_dst : t -> int -> int

(** Sender-local post time.
    Kept: the exporter's flow arrows read it; the capture-order and
    digest tests compare messages field by field. *)
val msg_send_time : t -> int -> float

(** When the receiver entered the completing MPI op.
    Kept: the receiving interval's start, kept so the capture-order and
    digest tests compare messages field by field. *)
val msg_recv_enter : t -> int -> float

(** When the transfer completed on the receiver.
    Kept: the exporter's flow arrows read it; the capture-order and
    digest tests compare messages field by field. *)
val msg_arrival : t -> int -> float

(** Message tag.
    Kept: the exporter's flow arrows read it; the capture-order and
    digest tests compare messages field by field. *)
val msg_tag : t -> int -> int

(** Message size in bytes.
    Kept: the exporter's flow arrows read it; the capture-order and
    digest tests compare messages field by field. *)
val msg_bytes : t -> int -> int

(** Receive-side vertex.
    Kept: the receiving interval's vertex, kept so the capture-order and
    digest tests compare messages field by field. *)
val msg_vertex : t -> int -> int option

(** Chrome [trace_event] document: one track per rank (its own process
    group, so a merged load with the pipeline trace of
    {!Scalana_obs.Obs} stays readable), one complete event per interval,
    and one flow arrow per matched message.  Flow ids come from
    {!Scalana_obs.Obs.Flow}, the process-global allocator, so they never
    collide with the pipeline trace's.  [psg] adds vertex labels to the
    slice args.
    Kept: the exporter's document before [export_trace] writes it, which the
    trace tests parse. *)
val to_trace_json : ?psg:Psg.t -> t -> Scalana_obs.Obs.Json.t

val export_trace : ?psg:Psg.t -> path:string -> t -> unit
