(** Root-cause extraction: Algorithm 1's main driver (backtrack from
    every non-scalable vertex, then from unscanned abnormal vertices) and
    the distillation of paths into ranked causes. *)

type cause = {
  cause_vertex : int;
  cause_loc : Scalana_mlang.Loc.t;
  cause_label : string;
  n_paths : int;  (** paths terminating at this cause *)
  total_time : float;
  imbalance : float;  (** max/median across ranks *)
  culprit_ranks : int list;
  example_path : Backtrack.path;
  wait_evidence : (Waitstate.clazz * float) list;
      (** corroborating wait-state attribution at this vertex, when a
          timeline replay was supplied to {!analyze} *)
}

type analysis = {
  nonscalable : Nonscalable.finding list;
  abnormal : Abnormal.finding list;
  insufficient : Nonscalable.insufficient list;
      (** vertices too damaged by faults to rank (degraded mode) *)
  quarantined_values : int;  (** poisoned per-rank values dropped *)
  evidence : (int * Nonscalable.evidence) list;
      (** every touched vertex's merged series and log-log fit, by
          ascending vertex id ({!Nonscalable.result.evidence}); the
          source {!Diff.summarize} reads *)
  paths : Backtrack.path list;
  causes : cause list;  (** ranked: paths, time, imbalance *)
  waitstate : Waitstate.t option;
      (** the wait-state replay the evidence was drawn from *)
  crosscheck : Crosscheck.t option;
      (** static-model cross-check of the non-scalable findings;
          attached by the pipeline when requested ([analyze] itself
          always leaves it [None], keeping default reports unchanged) *)
  elastic : (int * Scalana_runtime.Elastic.info) list;
      (** per-nominal-scale elastic-session summaries, sorted by scale;
          the pipeline attaches one for each run that carries it
          ([analyze] leaves it empty, and fixed-membership reports have
          no elastic section) *)
}

(** The rank spending the most time at a vertex (walk start heuristic). *)
val start_rank : Scalana_ppg.Ppg.t -> vertex:int -> int

(** With [pool], the non-scalable detection stage fans out across
    domains (backtracking itself shares a visited set and stays
    sequential); the analysis is identical to the sequential one.
    [waitstate] attaches per-vertex wait-state evidence to each cause
    (it does not change which causes are found or their ranking). *)
val analyze :
  ?ns_config:Nonscalable.config ->
  ?ab_config:Abnormal.config ->
  ?bt_config:Backtrack.config ->
  ?pool:Scalana_pool.Pool.t ->
  ?waitstate:Waitstate.t ->
  Scalana_ppg.Crossscale.t ->
  analysis
