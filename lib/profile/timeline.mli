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
    reported as a fraction of the {e true} blocked time. *)

open Scalana_psg
open Scalana_runtime

type config = { max_events : int  (** intervals + messages recorded *) }

val default_config : config

(** What one MPI interval saw, the raw material of wait-state replay. *)
type mpi_info = {
  op : string;  (** [Ast.mpi_name] of the call *)
  wait : float;  (** blocked seconds inside the call *)
  deps : (int * float * float) list;
      (** matched sends: (peer rank, peer post time, arrival time) *)
  send_dests : int list;  (** destinations of sends posted by this op *)
  coll : coll_info option;
}

and coll_info = {
  coll_arrive : float;
  coll_start : float;  (** when the last rank arrived *)
  coll_last_rank : int;
}

type kind = Compute of { label : string option } | Mpi of mpi_info

type interval = {
  iv_rank : int;
  iv_vertex : int option;  (** contracted-PSG vertex, when resolvable *)
  mutable iv_start : float;
  mutable iv_stop : float;
  iv_kind : kind;
  mutable iv_merged : int;  (** raw intervals folded into this one *)
}

(** A matched point-to-point message, for flow arrows and replay. *)
type message = {
  msg_src : int;
  msg_dst : int;
  msg_send_time : float;  (** sender-local post time *)
  msg_recv_enter : float;  (** receiver entered the completing MPI op *)
  msg_arrival : float;  (** transfer completed on the receiver *)
  msg_tag : int;
  msg_bytes : int;
  msg_vertex : int option;  (** receive-side vertex *)
}

(** A captured timeline.  Arrays are sorted: intervals by (rank, start,
    stop), messages by (send time, src, dst, tag).  Each rank's
    intervals come out in the order they were recorded, which is that
    order because a rank's clock never runs backwards. *)
type t = {
  nprocs : int;
  elapsed : float;
  intervals : interval array;
  messages : message array;
  blocked : float array;  (** per-rank blocked seconds, never truncated *)
  dropped : int array;  (** per-rank events lost to the [max_events] cap *)
  merged : int;  (** raw intervals removed by vertex-keyed compression *)
}

type recorder

val create : ?config:config -> index:Index.t -> nprocs:int -> unit -> recorder

(** The instrument hooks; attach via [Exec.config ~tools],
    [Prof.run ~extra_tools] or [Prof.run_with_retry ~extra_tools] (one
    recorder per attempt).  All hooks return 0.0 overhead. *)
val tool : recorder -> Instrument.t

(** Freeze the recorder into a sorted, immutable timeline.  Intervals
    are laid out rank by rank, not sorted; only messages are, with a
    stable merge sort ([Array.stable_sort]): messages that compare equal
    keep their newest-first recording order. *)
val capture : recorder -> t

val total_blocked : t -> float
val total_dropped : t -> int

(** Chrome [trace_event] document: one track per rank (its own process
    group, so a merged load with the pipeline trace of
    {!Scalana_obs.Obs} stays readable), one complete event per interval,
    and one flow arrow per matched message.  Flow ids come from
    {!Scalana_obs.Obs.Flow}, the process-global allocator, so they never
    collide with the pipeline trace's.  [psg] adds vertex labels to the
    slice args. *)
val to_trace_json : ?psg:Psg.t -> t -> Scalana_obs.Obs.Json.t

val export_trace : ?psg:Psg.t -> path:string -> t -> unit
