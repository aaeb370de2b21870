(** ScalAna-detect: the end-to-end pipeline — static analysis, profiled
    runs at several job scales, PPG construction, detection and the
    report; the detection step is timed (Table IV).

    The pipeline degrades instead of dying: salvaged artifacts,
    fault-killed runs and poisoned metrics are analyzed over what
    survives, with the loss quantified in [quality].  Clean inputs yield
    {!Scalana_detect.Quality.clean} and a report byte-identical to a
    pipeline without the resilience layer. *)

open Scalana_mlang
open Scalana_runtime
open Scalana_ppg
open Scalana_detect

type t = {
  static : Static.t;
  runs : (int * Prof.run) list;
  crossscale : Crossscale.t;
  analysis : Rootcause.analysis;
  lint : Lint.finding list;
      (** static scaling-loss predictions; non-scalable vertices they
          anticipate are marked in the report *)
  quality : Quality.t;
      (** what degraded inputs lost ({!Scalana_detect.Quality.clean}
          when nothing did) *)
  detect_seconds : float;
  phase_costs : (string * int * float) list;
      (** per-phase self-observability summary [(phase, calls, total
          seconds)], sorted by total descending — filled only while
          {!Scalana_obs.Obs} collection is enabled (e.g. under
          [scalana-detect --trace]); [[]] otherwise, and then the report
          is byte-identical to a build without the observability layer *)
  timeline : Scalana_profile.Timeline.t option;
      (** per-rank timeline at one of the profiled scales (the largest
          unless the caller picked another, e.g. [--timeline-np]);
          [None] unless requested (e.g. [run ~timeline:true] or
          [scalana-detect --wait-states]), and then the report carries a
          wait-state section *)
  history : Scalana_obs.History.entry list;
      (** prior ledger entries behind the report's trend section —
          loaded by the caller (e.g. [scalana-detect --history]); [[]]
          (the default) leaves the report byte-identical *)
  report : string;
}

(** The replay: re-simulate one scale of a stored session, whose runs
    are over ([scalana-detect], [scalana-viewer], [scalana-diff]),
    through {!Prof.run} with the rank-timeline recorder attached after
    the profiler.  The recorder charges zero overhead, so the captured
    clocks reproduce a clean fixed-membership profiled run of the same
    static artifact at the same scale and the default settings.  A run
    that saw injection rules, another sampling frequency or an elastic
    plan does not replay, and {!detect_session} refuses its timeline.
    [Prof.run]'s refinement step leaves the static artifact as it is on
    a replay that reproduces its run: every indirect callsite it
    resolves was spliced when that run was profiled. *)
val rank_timeline :
  ?config:Config.t ->
  ?cost:Costmodel.t ->
  Static.t ->
  nprocs:int ->
  Scalana_profile.Timeline.t

(** Detection over a loaded session; salvage issues recorded by
    {!Artifact.load_session} become data-quality entries.  The PPG
    builds and per-vertex fits fan out over [config.analysis_domains]
    worker domains; output is identical to a sequential run.  [timeline]
    attaches a captured rank timeline: its wait-state replay feeds the
    analysis (per-cause evidence) and the report, which sets each
    waiting vertex's replayed wait next to the sampled wait of the PPG
    at the timeline's scale.  The timeline must record the run the
    analysis reads: its scale a profiled fixed-membership run whose
    elapsed time equals [Timeline.elapsed] bit for bit; otherwise
    [Invalid_argument] names the scale and both times.  Runs that carry
    an elastic summary add the membership-timeline and recovery
    sections.  [history] (prior ledger entries) adds the trend section
    to the report. *)
val detect_session :
  ?config:Config.t -> ?timeline:Scalana_profile.Timeline.t ->
  ?history:Scalana_obs.History.entry list ->
  Artifact.session -> t

(** End to end: static analysis, one profiled run per scale, detection.
    With [config.analysis_domains >= 2] the local-PSG builds, the
    per-scale profiled runs (when independent: no injection rules, no
    indirect calls), the PPG builds and the log-log fits all fan out
    across domains, and the result — report included — is byte-identical
    to the sequential pipeline.  A [faults] plan injects deterministic
    failures: dropped scales never run, fault-killed runs get up to
    [config.max_run_retries] fresh attempts, and whatever still degrades
    is analyzed over the surviving ranks.  [timeline] additionally
    captures a rank timeline at the largest kept scale and appends the
    wait-state section to the report (default [false]: the report stays
    byte-identical to a build without the timeline layer).  The
    recorder rides in that scale's own profiled run, after the profiler
    and at zero overhead, so every scale is simulated once and the
    clocks, profiles and report are those of a run without it.  Under
    [faults] it records the final attempt, the one the analysis reads
    (a fresh recorder per attempt), ranks it lost included.  Every scale
    is a fixed-membership run: an elastic session is profiled one scale
    at a time with {!Prof.run_elastic} and analysed by
    {!detect_session}, as [scalana-prof] and [scalana-detect] do. *)
val run :
  ?config:Config.t ->
  ?cost:Costmodel.t ->
  ?inject:Inject.t ->
  ?faults:Faults.plan ->
  ?scales:int list ->
  ?timeline:bool ->
  Ast.program ->
  t

(** [not (Quality.is_clean t.quality)]. *)
val degraded : t -> bool

(** {!Scalana_ppg.Ppg.storage_bytes} summed over every profiled scale:
    what the PPGs add to the profiles they read in place. *)
val ppg_storage_bytes : t -> int

(** The analysed session summarised for cross-session diffing
    ({!Scalana_detect.Diff}): the detector's slope for every touched
    vertex (read from [analysis], not fitted again), plus times, waits
    and coverage — self-contained, so two summaries compare without
    re-opening the sessions. *)
val diff_summary : ?label:string -> t -> Diff.summary

(** One commit-stamped ledger row for this detect run: label, scales,
    the top-k non-scalable slopes (keyed as {!Scalana_detect.Diff}
    aligns vertices), wait-class totals (the summed sampled wait when
    no timeline replay ran) and quality flags.  [time] and [commit]
    default to now and the checked-out commit — pass both for
    deterministic output. *)
val history_entry :
  ?time:float ->
  ?commit:string ->
  ?label:string ->
  t ->
  Scalana_obs.History.entry

val root_cause_labels : t -> string list
