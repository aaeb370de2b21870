(** End-user configuration of the pipeline: the paper's MaxLoopDepth and
    AbnormThd knobs plus sampling/instrumentation settings, with the
    evaluation defaults, and mappings onto the per-module configs.
    Backtracking pruning and the non-scalable aggregation strategy run
    at their module's [default_config].  The non-scalable ranking
    (share, score and point thresholds, top 5), the abnormal-time floor,
    the backtracking step bound and the profiler's modelled costs are
    constants of their modules, not settings. *)

type t = {
  max_loop_depth : int;  (** PSG contraction bound (paper: 10) *)
  abnorm_thd : float;  (** abnormal-vertex threshold (paper: 1.3) *)
  sampling_freq : float;  (** Hz (paper: 200) *)
  record_prob : float;  (** random-sampling instrumentation threshold *)
  follow_def_use : bool;
      (** backtrack along explicit def-use edges where available instead
          of sibling order (off = paper-faithful Algorithm 1) *)
  seed : int;
  analysis_domains : int;
      (** Parallelism of the analysis fan-outs (per-scale runs, PPG
          builds, log-log fits, local PSGs): total domains used,
          caller included.  Default {!Pool.default_size}; [1] forces the
          sequential path.  Results are identical either way. *)
  max_run_retries : int;
      (** Extra profiling attempts (fresh fault draws) granted to a run
          that lost ranks to injected faults.  Default 2. *)
  static_crosscheck : bool;
      (** Cross-check the non-scalable vertices' fitted slopes against
          the symbolic communication model
          ({!Scalana_detect.Crosscheck}).  Default [false]: reports
          stay byte-identical. *)
}

val default : t
val profiler_config : t -> Scalana_profile.Profiler.config

(** {!Scalana_detect.Nonscalable.default_config}: no field of [t]
    tunes the ranking. *)
val ns_config : t -> Scalana_detect.Nonscalable.config

val ab_config : t -> Scalana_detect.Abnormal.config
val bt_config : t -> Scalana_detect.Backtrack.config
