(** Cross-session regression diffing.

    [Diff] compares two detect runs of the same program — typically two
    commits, or clean vs. patched — by aligning PSG vertices
    structurally (label + source location + call path, so vertex ids
    may differ between sessions) and classifying each aligned pair's
    slope / time / wait deltas against configurable thresholds.

    A {!summary} is the self-contained per-session half: it reads the
    detector's evidence, the log-log slope of {e every} touched vertex
    (not just the top-k findings), so two summaries can be compared
    without access to the original sessions.  [scalana-diff] builds one
    per session and calls {!compare_summaries}; the exit-code
    convention mirrors the rest of the CLI: 0 clean, 1 regression, 2
    degraded input. *)

(** Structural identity of a vertex across sessions. *)
type key = {
  k_label : string;  (** {!Scalana_psg.Vertex.label} *)
  k_loc : string;  (** "file:line" *)
  k_callpath : string list;  (** call-site locations, outermost first *)
}

val key_string : key -> string

(** Structural key of vertex [vid] in [psg]. *)
val key_of_vertex : Scalana_psg.Psg.t -> int -> key

(** Per-vertex statistics within one session. *)
type vstat = {
  vs_slope : float option;  (** log-log slope; [None] when < 2 fit points *)
  vs_points : int;  (** scale points the fit used *)
  vs_coverage : float;  (** surviving-rank coverage at the largest scale *)
  vs_time : float;  (** aggregate time at the largest scale, seconds *)
  vs_wait : float;  (** sampled wait time at the largest scale, seconds *)
  vs_fraction : float;  (** share of total time at the largest scale *)
  vs_wait_mix : (string * float) list;
      (** wait-class name → attributed seconds (only when wait-state
          analysis ran) *)
}

(** One session, summarised for diffing. *)
type summary = {
  s_label : string;
  s_program : string;
  s_scales : int list;
  s_degraded : bool;
  s_rank_coverage : float;
  s_total_time : float;  (** total time at the largest scale *)
  s_wait_mix : (string * float) list;  (** session-level wait-class totals *)
  s_vertices : (key * vstat) list;  (** sorted by key *)
}

(** Build a summary from an analysed session.  Slopes and times are
    [analysis]'s evidence ({!Rootcause.analysis.evidence}), the fits the
    detector made, so nothing is fitted again; wait mixes come from its
    wait-state replay, when one ran. *)
val summarize :
  ?label:string ->
  psg:Scalana_psg.Psg.t ->
  crossscale:Scalana_ppg.Crossscale.t ->
  analysis:Rootcause.analysis ->
  quality:Quality.t ->
  program:string ->
  unit ->
  summary

(** Classification thresholds.  All comparisons are strict ([>]), so a
    delta exactly at a threshold is {e not} a regression. *)
type thresholds = {
  slope_tol : float;  (** absolute slope-delta tolerance *)
  time_tol : float;  (** relative time-growth tolerance *)
  wait_tol : float;  (** relative wait-growth tolerance *)
  min_fraction : float;
      (** vertices below this share of total time on both sides are
          reported only in the skipped count *)
}

val default_thresholds : thresholds

(** Raise [Invalid_argument], naming [what], unless [v] is a usable
    tolerance (finite, at least 0) or [min_fraction] (within [0, 1]).
    {!compare_summaries} checks its thresholds with these. *)
val check_tol : what:string -> float -> unit

val check_fraction : what:string -> float -> unit

type verdict = Regressed | Improved | Unchanged | New | Gone

(** One aligned (or one-sided) vertex comparison. *)
type delta = {
  d_key : key;
  d_verdict : verdict;
  d_base : vstat option;  (** [None] for [New] *)
  d_cand : vstat option;  (** [None] for [Gone] *)
  d_slope_delta : float option;  (** cand - base, when both fitted *)
  d_time_ratio : float;  (** cand/base time, 0 when base has none *)
  d_wait_ratio : float;
  d_reasons : string list;  (** human-readable trigger descriptions *)
}

type t = {
  base : summary;
  cand : summary;
  deltas : delta list;  (** regressed, improved, new, gone, unchanged *)
  n_regressed : int;
  n_improved : int;
  n_unchanged : int;
  n_new : int;
  n_gone : int;
  n_skipped : int;  (** below [min_fraction] on both sides *)
  degraded : bool;  (** either input session was degraded *)
  thresholds : thresholds;
}

(** Raises [Invalid_argument] for an unusable threshold
    ({!check_tol}, {!check_fraction}). *)
val compare_summaries :
  ?thresholds:thresholds -> base:summary -> cand:summary -> unit -> t

val has_regressions : t -> bool

(** The scalana-diff text report. *)
val pp : Format.formatter -> t -> unit
