(** On-disk session artifacts shared by the scalana-static / -prof /
    -detect executables.

    Format v4 wraps [Marshal] payloads in a durable record stream:
    ["SCALANA2"] magic + version byte, then per record a 4-byte
    big-endian payload length, a 4-byte big-endian CRC-32 and the
    payload.  Every save writes a temporary file in the session
    directory and renames it over the artifact, so a failed or killed
    save leaves the last completed one; the salvage reader recovers the
    valid prefix of a truncated or corrupted file, reporting damage as a
    typed {!error}.  The version byte names the record shape: a file of
    any other version (an older build's, whose profile Marshal would
    decode into the wrong shape) is refused as [Bad_version]. *)

type session = {
  static : Static.t;
  runs : (int * Prof.run) list;
  issues : issue list;  (** artifact damage found while loading *)
}

and error =
  | Missing of { path : string }
  | Bad_magic of { path : string }
  | Bad_version of { path : string; version : int }
  | Truncated of { path : string; records_ok : int; at_byte : int }
  | Checksum_mismatch of { path : string; record : int }
  | Decode_failure of { path : string; record : int; reason : string }
  | Empty of { path : string }
  | Wrong_scale of { path : string; nprocs : int }
      (** a profile file whose newest record is for scale [nprocs], not
          the scale its name gives *)

and issue = { issue_path : string; kept : int; error : error }

exception Error of error

val error_detail : error -> string

(** The file the error is about, [": "], then {!error_detail}. *)
val error_message : error -> string

val issue_message : issue -> string

(** Kept: the on-disk header; the version tests forge headers with it. *)
val magic : string

(** Kept: the on-disk header; the version tests forge older headers with it. *)
val format_version : int

(** {!Scalana_obs.History.crc32}: the ledger's CRC-32 frames every
    record.
    Kept: the record checksum; the salvage tests forge records with it. *)
val crc32 : string -> int

(** [write_values path vs]: a fresh stream of [vs], one record each,
    written to [<path>.<pid>.tmp] and renamed over [path].  If writing,
    closing or renaming raises, the temporary file is removed, [path] is
    left as it was, and the exception is re-raised.
    Kept: the typed savers' one writer; the salvage and round-trip tests
    build multi-record streams with it. *)
val write_values : string -> 'a list -> unit

(** First record of the stream.  Raises {!Error} on missing, foreign,
    truncated or corrupt files.
    Kept: a record-stream primitive the typed loaders wrap; the round-trip
    tests drive it. *)
val load_value : string -> 'a

type 'a salvage = {
  values : 'a list;  (** the intact record prefix *)
  damage : error option;  (** what stopped the read, if anything *)
}

(** Salvage read: every intact record before the first damage.
    Kept: the salvage reader, which the damage tests drive record by record. *)
val read_stream : string -> 'a salvage

(** Kept: where a session's static artifact lives; the damage tests corrupt
    that file. *)
val static_path : string -> string
val run_path : string -> int -> string
val save_static : string -> Static.t -> unit

(** Raises {!Error} when the static artifact is missing or damaged. *)
val load_static : string -> Static.t

(** Writes the run as the scale's whole profile, replacing any earlier
    one, damaged or not. *)
val save_run : string -> Prof.run -> unit

(** Salvaging run loader: per scale, the newest intact record of its
    profile, plus one {!issue} per damaged file (a file with valid
    magic but no decodable record is reported, never dropped).  A file
    whose newest record is for another scale than {!run_path} gives its
    name is skipped and reported as [Wrong_scale]. *)
val load_runs_salvage : string -> (int * Prof.run) list * issue list

(** Raises {!Error} when the static artifact is unreadable; run damage
    is salvaged into [issues] instead. *)
val load_session : string -> session
