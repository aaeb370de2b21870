(* On-disk session artifacts.

   The three user-facing steps of Section V are separate executables
   (scalana-static, scalana-prof, scalana-detect); a session directory
   carries the static artifact and one profile per job scale between
   them.

   Durable format (v4): production runs fill disks and die mid-write, so
   raw Marshal is wrapped in a versioned, checksummed record stream:

     header  = "SCALANA2" (8 bytes) ++ format version (1 byte)
     record  = payload length (4-byte big-endian)
            ++ CRC-32 of payload (4-byte big-endian)
            ++ payload (Marshal of one value)

   Every save writes a whole file, one record, to a temporary file in
   the session directory and renames it over the artifact, so a save
   that fails or is killed leaves the last completed save in place.
   The salvage reader walks the stream, takes the newest intact record
   of a file an earlier, appending build wrote, and recovers the valid
   prefix of a truncated or bit-flipped file, reporting what was lost as
   a typed {!error} instead of crashing the whole analysis.

   The CRC catches damage, not a change of record shape: Marshal decodes
   another build's record into whatever the reader's types say.  So the
   version byte names the shape and moves with it.  Version 4 is the
   profile stored as per-vertex rows of per-rank arrays with its p2p
   edges as flat columns (version 3 held the edges in a hash table of
   boxed records, version 2 per-rank tables of boxed vectors); any other
   version is refused as [Bad_version] before a payload is decoded. *)

type session = {
  static : Static.t;
  runs : (int * Prof.run) list;
  issues : issue list;  (* artifact damage found while loading *)
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

and issue = { issue_path : string; kept : int; error : error }

exception Error of error

let error_path = function
  | Missing { path }
  | Bad_magic { path }
  | Bad_version { path; _ }
  | Truncated { path; _ }
  | Checksum_mismatch { path; _ }
  | Decode_failure { path; _ }
  | Empty { path }
  | Wrong_scale { path; _ } ->
      path

let error_detail = function
  | Missing _ -> "no such artifact"
  | Bad_magic _ -> "not a ScalAna artifact"
  | Bad_version { version; _ } ->
      Printf.sprintf "unsupported artifact format version %d" version
  | Truncated { records_ok; at_byte; _ } ->
      Printf.sprintf "truncated at byte %d (%d intact record%s before it)"
        at_byte records_ok
        (if records_ok = 1 then "" else "s")
  | Checksum_mismatch { record; _ } ->
      Printf.sprintf "checksum mismatch in record %d" record
  | Decode_failure { record; reason; _ } ->
      Printf.sprintf "record %d does not decode (%s)" record reason
  | Empty _ -> "no intact records"
  | Wrong_scale { nprocs; _ } ->
      Printf.sprintf
        "holds the profile for scale %d, not the one its name gives" nprocs

let error_message e = error_path e ^ ": " ^ error_detail e

let issue_message i =
  Printf.sprintf "%s (%d record%s salvaged)" (error_message i.error) i.kept
    (if i.kept = 1 then "" else "s")

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Scalana.Artifact.Error: " ^ error_message e)
    | _ -> None)

let magic = "SCALANA2"
let format_version = 4
let header_bytes = String.length magic + 1

let crc32 = Scalana_obs.History.crc32

(* --- writers --- *)

let write_header oc =
  output_string oc magic;
  output_byte oc format_version

let write_record oc v =
  let payload = Marshal.to_string v [] in
  Scalana_obs.Obs.Metrics.incr ~by:(8 + String.length payload)
    "artifact.bytes_written";
  output_binary_int oc (String.length payload);
  output_binary_int oc (crc32 payload);
  output_string oc payload

(* A fresh stream of the values, in order, through a temporary file
   renamed over [path].  The loaders read only [session.static] and
   [*.prof], so the temporary file a killed writer leaves is ignored. *)
let write_values path vs =
  Scalana_obs.Obs.with_span
    ~args:[ ("path", Filename.basename path) ]
    "artifact.write"
  @@ fun () ->
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  try
    write_header oc;
    List.iter (write_record oc) vs;
    close_out oc;
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

(* --- salvage reader --- *)

type 'a salvage = { values : 'a list; damage : error option }

(* Walk the record stream, keeping every intact record; the first sign of
   damage (short read, bad checksum, undecodable payload) stops the walk
   and is reported — the valid prefix survives. *)
let read_stream_body path : 'a salvage =
  if not (Sys.file_exists path) then
    { values = []; damage = Some (Missing { path }) }
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        if len < header_bytes then
          let prefix = really_input_string ic (min len (String.length magic)) in
          if String.equal prefix (String.sub magic 0 (String.length prefix))
          then
            { values = []; damage = Some (Truncated { path; records_ok = 0; at_byte = len }) }
          else { values = []; damage = Some (Bad_magic { path }) }
        else begin
          let m = really_input_string ic (String.length magic) in
          if not (String.equal m magic) then
            { values = []; damage = Some (Bad_magic { path }) }
          else begin
            let version = input_byte ic in
            if version <> format_version then
              { values = []; damage = Some (Bad_version { path; version }) }
            else begin
              let rec loop acc n pos =
                if pos = len then { values = List.rev acc; damage = None }
                else if len - pos < 8 then
                  {
                    values = List.rev acc;
                    damage = Some (Truncated { path; records_ok = n; at_byte = pos });
                  }
                else begin
                  let plen = input_binary_int ic in
                  let crc = input_binary_int ic land 0xFFFFFFFF in
                  if plen < 0 || pos + 8 + plen > len then
                    {
                      values = List.rev acc;
                      damage =
                        Some (Truncated { path; records_ok = n; at_byte = pos });
                    }
                  else begin
                    let payload = really_input_string ic plen in
                    if crc32 payload <> crc then
                      {
                        values = List.rev acc;
                        damage = Some (Checksum_mismatch { path; record = n });
                      }
                    else
                      match Marshal.from_string payload 0 with
                      | v -> loop (v :: acc) (n + 1) (pos + 8 + plen)
                      | exception e ->
                          {
                            values = List.rev acc;
                            damage =
                              Some
                                (Decode_failure
                                   {
                                     path;
                                     record = n;
                                     reason = Printexc.to_string e;
                                   });
                          }
                  end
                end
              in
              loop [] 0 header_bytes
            end
          end
        end)
  end

(* Observable wrapper: bytes read, salvage counts and one span per file
   walked.  Disabled (the default) it is the body, verbatim. *)
let read_stream path : 'a salvage =
  let module Obs = Scalana_obs.Obs in
  if not (Obs.enabled ()) then read_stream_body path
  else
    Obs.with_span ~args:[ ("path", Filename.basename path) ] "artifact.read"
    @@ fun () ->
    let s = read_stream_body path in
    let bytes =
      match Unix.stat path with
      | st -> st.Unix.st_size
      | exception Unix.Unix_error _ -> 0
    in
    Obs.Metrics.incr "artifact.reads";
    Obs.Metrics.incr ~by:bytes "artifact.bytes_read";
    (match s.damage with
    | Some _ ->
        Obs.Metrics.incr "artifact.damaged_files";
        Obs.Metrics.incr ~by:(List.length s.values) "artifact.salvaged_records"
    | None -> ());
    s

(* Strict single-value read: the first record, or a typed {!Error}. *)
let load_value path =
  match read_stream path with
  | { values = v :: _; _ } -> v
  | { values = []; damage = Some e } -> raise (Error e)
  | { values = []; damage = None } -> raise (Error (Empty { path }))

let static_path dir = Filename.concat dir "session.static"
let run_path dir nprocs = Filename.concat dir (Printf.sprintf "run_%04d.prof" nprocs)

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    failwith (dir ^ " exists and is not a directory")

let save_static dir (static : Static.t) =
  ensure_dir dir;
  write_values (static_path dir) [ static ]

let load_static dir : Static.t = load_value (static_path dir)

let save_run dir (run : Prof.run) =
  ensure_dir dir;
  write_values (run_path dir run.Prof.nprocs) [ run ]

let rec last = function [ x ] -> Some x | _ :: rest -> last rest | [] -> None

(* Load every profile, salvaging what damaged files still carry.  A file
   whose magic matches but whose payload fails to decode is surfaced as
   an issue naming the file — never silently dropped, never a crash.  So
   is a file whose newest record is for another scale than its name (a
   copied or renamed profile): it is skipped, so no scale is fitted
   twice. *)
let load_runs_salvage dir =
  let runs = ref [] and issues = ref [] in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.iter (fun f ->
         if Filename.check_suffix f ".prof" then begin
           let path = Filename.concat dir f in
           let s : Prof.run salvage = read_stream path in
           (match s.damage with
           | Some error ->
               issues :=
                 { issue_path = path; kept = List.length s.values; error }
                 :: !issues
           | None ->
               if s.values = [] then
                 issues :=
                   { issue_path = path; kept = 0; error = Empty { path } }
                   :: !issues);
           match last s.values with
           | Some run when String.equal path (run_path dir run.Prof.nprocs) ->
               runs := (run.Prof.nprocs, run) :: !runs
           | Some run ->
               issues :=
                 {
                   issue_path = path;
                   kept = 0;
                   error = Wrong_scale { path; nprocs = run.Prof.nprocs };
                 }
                 :: !issues
           | None -> ()
         end);
  ( List.sort (fun (a, _) (b, _) -> compare a b) !runs,
    List.rev !issues )

let load_session dir =
  let runs, issues = load_runs_salvage dir in
  { static = load_static dir; runs; issues }
