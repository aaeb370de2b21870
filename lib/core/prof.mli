(** ScalAna-prof: run an instrumented program at one job scale and apply
    the runtime refinements (indirect-call splicing) to the static
    artifact.  Faults from a {!Scalana_runtime.Faults.plan} are armed per
    attempt; {!run_with_retry} re-profiles a degraded run with fresh
    fault draws, bounded by [retries]. *)

open Scalana_runtime
open Scalana_profile

type run = {
  nprocs : int;
  data : Profdata.t;
  result : Exec.result;
  baseline_elapsed : float option;  (** same run without tools *)
  attempts : int;  (** profiling attempts consumed (>= 1) *)
  retry_backoff : float list;
      (** deterministic backoff waited out before each retry, in retry
          order; empty when the first attempt stood *)
  elastic : Elastic.info option;
      (** membership/recovery summary when profiled by {!run_elastic} *)
}

(** Available when the run was made with [~measure_overhead:true]. *)
val overhead_percent : run -> float option

(** One profiled run at [attempt] (default 1).  [extra_tools] are
    attached after the profiler, so a tool charging 0.0 overhead leaves
    the clocks, and thus the profile, exactly as without it. *)
val run :
  ?config:Config.t ->
  ?cost:Costmodel.t ->
  ?inject:Inject.t ->
  ?faults:Faults.plan ->
  ?attempt:int ->
  ?measure_overhead:bool ->
  ?extra_tools:Instrument.t list ->
  Static.t ->
  nprocs:int ->
  unit ->
  run

(** Deterministic exponential backoff before retry [attempt + 1]:
    [0.05 * 2^(attempt-1)] seconds.  Simulated, never slept; recorded on
    the run and observed as [prof.retry_backoff_seconds].
    Kept: the retry ladder [run_with_retry] records, whose steps the backoff
    test pins. *)
val backoff_delay : attempt:int -> float

(** Like {!run}, retrying (with attempt numbers 2, 3, …) while a rank of
    the run died or was stranded, up to [retries] extra attempts; the
    last attempt is returned even if still degraded.  [extra_tools ~attempt] is called
    once per attempt, before it runs, and its tools are attached to that
    attempt only: a tool created there (a {!Scalana_profile.Timeline}
    recorder, say) sees exactly one attempt, and the last one created
    saw the returned run.  Default: no extra tools. *)
val run_with_retry :
  ?retries:int ->
  ?config:Config.t ->
  ?cost:Costmodel.t ->
  ?inject:Inject.t ->
  ?faults:Faults.plan ->
  ?extra_tools:(attempt:int -> Instrument.t list) ->
  Static.t ->
  nprocs:int ->
  unit ->
  run

(** One elastic session at nominal scale [nprocs]: run the plan's
    membership epochs as separate simulator slices (the program's
    iteration range parameters select each slice), stitch them with the
    recovery protocol, and merge the per-epoch profiles into one
    per-global-rank artifact.  The result carries the time-weighted
    effective process count for the log-log fits and the full
    membership/recovery summary in [elastic]; ranks that left appear as
    [killed_ranks], so the run is degraded and the usual exit-code
    and data-quality paths apply.  Deterministic: same (plan, nprocs) ⇒
    byte-identical artifact. *)
val run_elastic :
  ?config:Config.t ->
  ?cost:Costmodel.t ->
  plan:Elastic.plan ->
  Static.t ->
  nprocs:int ->
  unit ->
  run
