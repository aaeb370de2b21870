(** Self-observability: tracing spans and a metrics registry for the
    ScalAna pipeline itself.

    ScalAna diagnoses *other* programs' scaling losses; this module
    makes its own cost measurable the same way — per-phase spans on a
    monotonic clock plus counters/gauges/histograms, exported as Chrome
    [trace_event] JSON (loadable in Perfetto or [about:tracing]) and a
    flat [metrics.json].

    Collection is {e off by default} and every entry point is a cheap
    no-op while disabled, so instrumented code paths behave — and
    allocate — essentially as if the instrumentation were not there.
    Reports stay byte-identical with observability off.

    Domain safety: spans and metrics may be recorded from any domain
    (the {!Scalana_pool.Pool} workers included).  Each domain appends
    to its own buffer, registered globally on first use; {!spans} and
    the exporters merge the per-domain buffers at flush time into one
    chronologically sorted stream, one trace track per domain.  A span
    must be finished on the domain that started it.  [enable], [reset]
    and the flush functions themselves expect quiescence (no concurrent
    recording), which the pipeline guarantees by flushing only after
    its pools have drained. *)

(** Minimal JSON values: enough to emit the two export formats and to
    parse them back in tests and CI assertions.  Stdlib-only. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string

  (** Parse a JSON document (the subset this module emits: no
      surrogate-pair [\u] escapes).  Returns [Error msg] with a byte
      offset on malformed input. *)
  val of_string : string -> (t, string) result

  (** [member key json] is the value bound to [key] when [json] is an
      object that has it. *)
  val member : string -> t -> t option
end

(** {1 Collection switch} *)

val enabled : unit -> bool

(** Start collecting: clears previous spans and metrics and re-anchors
    the trace clock at now. *)
val enable : unit -> unit

(** Stop collecting.  Already-recorded data stays readable. *)
val disable : unit -> unit

(** Drop all recorded spans and metrics (does not change the switch).
    Kept: test hook that clears what was collected between cases. *)
val reset : unit -> unit

(** {1 Clock} *)

(** Seconds since {!enable}, clamped per domain so it never runs
    backwards.  [0.] while disabled. *)
val now : unit -> float

(** {1 Spans} *)

type span

(** [start name] opens a span on the calling domain's buffer; spans
    opened while one is already open on the same domain nest under it.
    While disabled this returns an inert token. *)
val start : ?args:(string * string) list -> string -> span

(** Close a span, recording its duration; [args] are appended to the
    ones given at [start] (measured results, e.g. byte counts). *)
val finish : ?args:(string * string) list -> span -> unit

(** [with_span name f] = [start]; [f ()]; [finish] — the span is closed
    on exceptions too. *)
val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** A finished span, as returned by {!spans}. *)
type completed = {
  sp_name : string;
  sp_args : (string * string) list;
  sp_start : float;  (** seconds since {!enable} *)
  sp_stop : float;
  sp_tid : int;  (** domain the span ran on *)
  sp_depth : int;  (** nesting depth within that domain (0 = top) *)
  sp_seq : int;  (** open order within that domain *)
}

(** All finished spans, merged across domains and sorted by start time
    (ties: domain id, then open order).
    Kept: inspection of the collected spans, read by the trace tests. *)
val spans : unit -> completed list

(** {1 Flow events}

    Flow arrows connect a point on one track to a point on another
    (Chrome trace_event ["ph":"s"]/["ph":"f"]) — the pool uses them to
    draw task enqueue → execution, and the application-timeline exporter
    ({!Scalana_profile.Timeline}) uses them for matched messages. *)

module Flow : sig
  (** Allocate a process-globally unique flow id.  The counter is an
      atomic that is {e never} reset — every exporter in the process
      draws from it, so ids stay disjoint across documents and a merged
      Perfetto load of a pipeline trace and a rank trace never
      collides.  Usable while collection is disabled (exporters that
      write their own documents still need unique ids). *)
  val next_id : unit -> int
end

(** One end of a flow arrow, recorded on the calling domain. *)
type flow_point = {
  fl_name : string;
  fl_id : int;
  fl_time : float;
  fl_tid : int;
  fl_end : bool;  (** [false] = start ("s"), [true] = finish ("f") *)
}

(** Record the start / finish point of flow [id] at the current time on
    the calling domain's track.  No-ops while disabled. *)
val flow_start : ?name:string -> int -> unit

val flow_finish : ?name:string -> int -> unit

(** All recorded flow points, merged across domains and sorted by time
    (ties: domain id, then id).
    Kept: inspection of the collected flows, read by the trace tests. *)
val flows : unit -> flow_point list

(** {1 Metrics} *)

module Metrics : sig
  (** Monotonic counter ([by] defaults to 1). *)
  val incr : ?by:int -> string -> unit

  (** Last-write-wins gauge. *)
  val set_gauge : string -> float -> unit

  (** Record one duration (seconds) into the named histogram. *)
  val observe : string -> float -> unit

  type histo = {
    h_count : int;
    h_sum : float;
    h_min : float;  (** 0. when empty *)
    h_max : float;
    h_buckets : int array;
        (** counts per {!bucket_bounds} band, last = overflow *)
  }

  (** Upper bounds (seconds) of the histogram bands; the implicit last
      band collects everything larger.
      Kept: the histogram layout, read by the metrics tests. *)
  val bucket_bounds : float array

  type snapshot = {
    counters : (string * int) list;
    gauges : (string * float) list;
    histograms : (string * histo) list;
  }

  (** Current values, each list sorted by name.
      Kept: inspection of the registry, read by the metrics tests. *)
  val snapshot : unit -> snapshot
end

(** {1 Exporters} *)

(** Per-phase cost: [(span name, calls, total seconds)], sorted by
    total descending (ties by name), from the spans recorded so far. *)
val phase_summary : unit -> (string * int * float) list

(** Chrome [trace_event] document: one complete ("ph":"X") event per
    finished span with microsecond timestamps, flow start/finish events
    ("ph":"s"/"f") for the recorded flow points, plus metadata events
    naming one track per domain.  Loads in Perfetto / about:tracing.
    Kept: the exporter's document before [export_trace] writes it, which the
    exporter tests parse. *)
val trace_json : unit -> Json.t

(** Flat metrics document: counters, gauges and histograms by name.
    Object keys and the ["phases"] array are sorted by name, so two
    exports of the same pipeline diff cleanly.
    Kept: the exporter's document before [export_metrics] writes it, which the
    exporter tests parse. *)
val metrics_json : unit -> Json.t

(** The metrics registry in OpenMetrics / Prometheus text exposition
    format: counters as [<name>_total], gauges plain, histograms as
    cumulative [_bucket{le="..."}] series over {!Metrics.bucket_bounds}
    plus [_sum]/[_count], and the {!phase_summary} rows as
    [scalana_phase_seconds_total{phase="..."}] /
    [scalana_phase_calls_total{phase="..."}].  Registry names are
    prefixed with [scalana_] and characters outside the Prometheus
    grammar are mapped to ['_'].  Ends with the [# EOF] terminator.
    Kept: the exporter's text before [export_openmetrics] writes it, which the
    exporter tests parse. *)
val openmetrics_string : unit -> string

val export_trace : path:string -> unit
val export_metrics : path:string -> unit

(** Write {!openmetrics_string} to [path] (conventionally [*.prom]). *)
val export_openmetrics : path:string -> unit
