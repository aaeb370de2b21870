(** Non-scalable vertex detection (Section IV-A): merge per-rank times at
    each scale, fit the log–log model, rank by slope; significance-filter
    by share of total time.  Poisoned per-rank values are quarantined,
    and vertices that lost too many scale points are reported as
    "insufficient data" instead of being ranked. *)

(** One vertex's scaling evidence: its merged time at every scale, the
    log-log fit of that series against effective scales, and its clean
    time summed across ranks at the largest scale. *)
type evidence = {
  series : (int * float) list;  (** (nprocs, merged time) *)
  fit : Loglog.fit;
  at_largest : float;
}

type finding = {
  vertex : int;
  slope : float;
  score : float;  (** slope - ideal slope; > 0 scales worse than ideal *)
  fraction : float;  (** share of total time at the largest scale *)
  fit : Loglog.fit;
  series : (int * float) list;
}

(** A vertex whose data the faults damaged too much to rank honestly. *)
type insufficient = {
  ins_vertex : int;
  clean_points : int;  (** scale points that survived quarantine *)
  dropped_values : int;  (** per-rank values quarantined across scales *)
}

type result = {
  findings : finding list;  (** ranked, as before *)
  insufficient : insufficient list;
  quarantined_values : int;  (** total poisoned values dropped *)
  evidence : (int * evidence) list;
      (** every touched vertex's evidence, by ascending vertex id: the
          one fit per vertex that {!Diff.summarize} reads back *)
}

(** The one setting of the ranking.  The rest are constants: vertices
    below 1% of the largest scale's time are ignored, only vertices
    whose slope is at least 0.25 above the ideal are reported, at most
    5 of them, and a vertex that lost data to quarantine needs 3 clean
    scale points for a verdict (vertices with no loss are exempt). *)
type config = { strategy : Aggregate.strategy }

val default_config : config

(** The evidence for [vertex] under [strategy]: the one computation
    behind the detector's verdicts, kept in {!result.evidence}. *)
val evidence :
  Aggregate.strategy -> Scalana_ppg.Crossscale.t -> vertex:int -> evidence

(** With [pool], the per-vertex aggregation + log-log fits run in
    parallel; the ranking is identical to the sequential one. *)
val detect_result :
  ?config:config ->
  ?pool:Scalana_pool.Pool.t ->
  Scalana_ppg.Crossscale.t ->
  result

(** Just the ranked findings of {!detect_result}. *)
val detect : ?config:config -> Scalana_ppg.Crossscale.t -> finding list

val pp_finding : Scalana_psg.Psg.t -> finding Fmt.t
val pp_insufficient : Scalana_psg.Psg.t -> insufficient Fmt.t
