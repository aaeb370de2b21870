(** Textual root-cause report: ranked causes with calling paths and
    source snippets (the viewer of Fig. 9 rendered for a terminal). *)

(** [predicted ~psg ~locs vid]: was vertex [vid] — or an enclosing
    structure — flagged at one of the static-lint locations [locs]? *)
val predicted :
  psg:Scalana_psg.Psg.t -> locs:Scalana_mlang.Loc.t list -> int -> bool

(** The "-- pipeline cost --" section over [(phase, calls, total
    seconds)] rows; prints nothing on [[]].  Exposed so [scalana-diff]
    can render its own cost with the same layout. *)
val pp_phase_costs :
  Format.formatter -> (string * int * float) list -> unit

(** [render analysis ~psg] — with [predicted_locs] (static-lint hit
    locations), non-scalable vertices the linter anticipated are marked
    ["[predicted statically]"].  A non-clean [quality] prepends a data
    quality section quantifying what degraded inputs lost; with the
    default clean quality the output is byte-identical to the original
    report.  A non-empty [phase_costs] ([(phase, calls, total seconds)]
    from {!Scalana_obs.Obs.phase_summary}) appends a "pipeline cost"
    section; by default — observability off — nothing is added.  When
    [analysis.waitstate] is set, a wait-state section is appended with
    per-class totals and the top waiting vertices cross-referenced
    against the detected ones; [ppg] adds the profiler's independently
    sampled wait per vertex as a cross-check.  When
    [analysis.crosscheck] is set, each non-scalable row covered by a
    symbolic prediction carries a
    ["[predicted O(p), model slope -0.50, measured -0.50 — confirmed]"]
    annotation, a cross-check section (with model-mismatch rows)
    follows the ranking, and causes whose backtracking path the model
    confirms gain a raised-confidence line; [None] (the default) leaves
    the report byte-identical.  A non-empty [history] (prior ledger
    entries, oldest first) appends the trend section; the default [[]]
    leaves the report byte-identical. *)
val render :
  ?program:Scalana_mlang.Ast.program ->
  ?predicted_locs:Scalana_mlang.Loc.t list ->
  ?quality:Quality.t ->
  ?phase_costs:(string * int * float) list ->
  ?ppg:Scalana_ppg.Ppg.t ->
  ?history:Scalana_obs.History.entry list ->
  Rootcause.analysis ->
  psg:Scalana_psg.Psg.t ->
  string
