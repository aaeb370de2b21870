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
      (** per-rank timeline captured at the largest analyzed scale;
          [None] unless requested (e.g. [run ~timeline:true] or
          [scalana-detect --wait-states]), and then the report carries a
          wait-state section *)
  history : Scalana_obs.History.entry list;
      (** prior ledger entries behind the report's trend section —
          loaded by the caller (e.g. [scalana-detect --history]); [[]]
          (the default) leaves the report byte-identical *)
  report : string;
}

(** The replay: re-simulate one scale with the rank-timeline recorder
    attached next to the regular profiler.  It serves stored sessions,
    whose runs are over ([scalana-detect], [scalana-viewer],
    [scalana-diff]), and elastic scales in {!run}.  The recorder charges
    zero overhead, so the captured clocks reproduce a stored profiled
    run of the same static artifact at the same scale, provided [inject]
    replays the injection that run saw: sessions do not store injection
    rules, and a rule's [every] counters carry over from earlier runs.
    The static artifact is not mutated. *)
val rank_timeline :
  ?config:Config.t ->
  ?cost:Costmodel.t ->
  ?net:Network.t ->
  ?inject:Inject.t ->
  ?params:(string * int) list ->
  Static.t ->
  nprocs:int ->
  Scalana_profile.Timeline.t

(** Detection over already-collected profiles.  The PPG builds and
    per-vertex fits fan out over [config.analysis_domains] worker
    domains; output is identical to a sequential run.  [artifact_issues]
    (damage found while loading) and [dropped_scales] (scales that never
    ran) flow into [quality].  [timeline] attaches a captured rank
    timeline: its wait-state replay feeds the analysis (per-cause
    evidence) and the report.  [history] (prior ledger entries) adds
    the trend section to the report. *)
val detect :
  ?config:Config.t ->
  ?artifact_issues:Quality.artifact_issue list ->
  ?dropped_scales:int list ->
  ?timeline:Scalana_profile.Timeline.t ->
  ?history:Scalana_obs.History.entry list ->
  Static.t ->
  (int * Prof.run) list ->
  t

(** Detection over a loaded session; salvage issues recorded by
    {!Artifact.load_session} become data-quality entries. *)
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
    (a fresh recorder per attempt), ranks it lost included.  An elastic
    scale has no single run, so its timeline is the {!rank_timeline}
    replay.  [elastic]
    replaces each scale's fixed run with an elastic session driven by
    the plan ({!Prof.run_elastic}); pair it with
    [config.elastic = true] to render the membership-timeline and
    recovery sections. *)
val run :
  ?config:Config.t ->
  ?cost:Costmodel.t ->
  ?net:Network.t ->
  ?inject:Inject.t ->
  ?faults:Faults.plan ->
  ?params:(string * int) list ->
  ?scales:int list ->
  ?timeline:bool ->
  ?elastic:Elastic.plan ->
  Ast.program ->
  t

(** [not (Quality.is_clean t.quality)]. *)
val degraded : t -> bool

(** Bytes held by the columnar PPG stores across every profiled scale —
    the analysis working set the detectors scan. *)
val ppg_storage_bytes : t -> int

(** The analysed session summarised for cross-session diffing
    ({!Scalana_detect.Diff}): per-vertex slopes recomputed for every
    touched vertex, plus times, waits and coverage — self-contained,
    so two summaries compare without re-opening the sessions.
    [strategy] defaults to the detector's default aggregation. *)
val diff_summary :
  ?label:string -> ?strategy:Aggregate.strategy -> t -> Diff.summary

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

val root_cause_locs : t -> Loc.t list
val root_cause_labels : t -> string list
