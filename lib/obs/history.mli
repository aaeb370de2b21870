(** Commit-stamped history ledger: one summary row per detect run.

    The ledger is an append-only JSONL file (one JSON object per line,
    conventionally [.scalana/history.jsonl]).  Each line carries a
    CRC-32 of its own payload, so a torn append or a flipped byte is
    detected on load and the damaged line is skipped — the same salvage
    posture as the artifact record streams, scaled down to text.

    Rows are written by [scalana-detect --history] and read back both
    by the trend section of the reports and by CI dashboards; the
    format is deliberately small and stable: label, commit, scales,
    top-k vertex slopes, wait-class totals and quality flags. *)

(** One detect run, summarised. *)
type entry = {
  h_time : float;  (** unix seconds when the row was recorded *)
  h_commit : string;  (** VCS stamp ({!current_commit}), ["unknown"] if none *)
  h_label : string;  (** user-chosen label, [""] by default *)
  h_program : string;
  h_scales : int list;
  h_slopes : (string * float) list;
      (** top-k vertex keys (label [@]loc) → fitted log-log slope *)
  h_waits : (string * float) list;  (** wait-class name → total seconds *)
  h_degraded : bool;  (** session quality was not clean *)
  h_coverage : float;  (** worst-scale rank coverage, 0..1 *)
  h_detect_seconds : float;
}

(** [".scalana/history.jsonl"] — relative to the working directory, so
    one checkout accumulates one ledger across sessions. *)
val default_path : string

(** Best-effort [git rev-parse --short HEAD]; ["unknown"] outside a
    repository or when git is unavailable. *)
val current_commit : unit -> string

(** Append one row, creating the ledger (and its directory) on first
    use.  The write is a single [O_APPEND] syscall, so concurrent
    appenders interleave whole lines.  A torn final line (a crashed
    appender) is not repaired, but the new row starts on a fresh line
    after it, so the ledger loses only the torn row. *)
val append : path:string -> entry -> unit

type load_result = {
  entries : entry list;  (** oldest first, in file order *)
  dropped : int;  (** lines skipped: truncated, malformed or bad CRC *)
}

(** Load a ledger, salvaging around damaged lines.  A missing file is
    an empty ledger, not an error. *)
val load : path:string -> load_result

(** {1 Trend queries} *)

(** Vertex keys tracked across [entries] (union of slope keys), sorted,
    most-recently-seen keys first on ties of name order — in practice:
    sorted by name. *)
val tracked_vertices : entry list -> string list

(** Per-entry slope of [key], [None] where the entry does not track
    it.  Oldest first, same order as the input. *)
val slope_trend : entry list -> key:string -> float option list

(** Render a series as a fixed-alphabet ASCII sparkline (one char per
    point, [' '] for missing points); values are scaled to the min/max
    of the present points. *)
val sparkline : float option list -> string

(** {1 Wire format} *)

(** CRC-32 (IEEE 802.3 / zlib polynomial) of a string: the checksum of
    every ledger line and of every artifact record. *)
val crc32 : string -> int

(** Parse one ledger line, checking the CRC.  [Error] describes why the
    line was rejected.
    Kept: the line parser [load] uses; its test checks why a line is
    rejected. *)
val entry_of_line : string -> (entry, string) result
