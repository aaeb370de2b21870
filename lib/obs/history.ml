(* Commit-stamped history ledger: append-only JSONL with per-line CRCs.

   The format mirrors the artifact record streams at text scale: every
   line is a self-contained JSON object whose last field is the CRC-32 of
   the object serialised without it, so a torn append (power loss mid
   write) or a flipped byte invalidates exactly one line and the rest
   of the ledger still loads.  Keys are emitted in sorted order so
   ledgers diff cleanly across machines. *)

type entry = {
  h_time : float;
  h_commit : string;
  h_label : string;
  h_program : string;
  h_scales : int list;
  h_slopes : (string * float) list;
  h_waits : (string * float) list;
  h_degraded : bool;
  h_coverage : float;
  h_detect_seconds : float;
}

let default_path = Filename.concat ".scalana" "history.jsonl"

(* CRC-32, IEEE 802.3 (the zlib polynomial); the artifact record
   streams in lib/core frame their payloads with it too.  Slicing-by-8:
   table [k] advances the CRC over a byte followed by [k] zero bytes, so
   one step folds 8 input bytes with 8 independent lookups instead of a
   chain of 8 dependent ones.  Bytes past the last whole step go through
   table 0, the classic bytewise loop. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- t.(prev land 0xff) lxor (prev lsr 8)
       done
     done;
     t)

let crc32 s =
  let t = Lazy.force crc_tables in
  let len = String.length s in
  let c = ref 0xFFFFFFFF and i = ref 0 in
  while !i + 8 <= len do
    let lo = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF)
    and hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    c :=
      t.((7 * 256) + (lo land 0xff))
      lxor t.((6 * 256) + ((lo lsr 8) land 0xff))
      lxor t.((5 * 256) + ((lo lsr 16) land 0xff))
      lxor t.((4 * 256) + (lo lsr 24))
      lxor t.((3 * 256) + (hi land 0xff))
      lxor t.((2 * 256) + ((hi lsr 8) land 0xff))
      lxor t.(256 + ((hi lsr 16) land 0xff))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  for j = !i to len - 1 do
    c := t.((!c lxor Char.code (String.unsafe_get s j)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let current_commit () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file | Sys_error _ -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
      | exception _ -> "unknown")

(* --- wire format --- *)

let num_map l =
  Obs.Json.Obj
    (List.map
       (fun (k, v) -> (k, Obs.Json.Num v))
       (List.sort (fun (a, _) (b, _) -> compare a b) l))

let entry_json e =
  Obs.Json.Obj
    [
      ("commit", Obs.Json.Str e.h_commit);
      ("coverage", Obs.Json.Num e.h_coverage);
      ("degraded", Obs.Json.Bool e.h_degraded);
      ("detect_seconds", Obs.Json.Num e.h_detect_seconds);
      ("label", Obs.Json.Str e.h_label);
      ("program", Obs.Json.Str e.h_program);
      ( "scales",
        Obs.Json.Arr
          (List.map (fun n -> Obs.Json.Num (float_of_int n)) e.h_scales) );
      ("slopes", num_map e.h_slopes);
      ("time", Obs.Json.Num e.h_time);
      ("waits", num_map e.h_waits);
    ]

let entry_line e =
  let payload = Obs.Json.to_string (entry_json e) in
  let crc = crc32 payload in
  Obs.Json.to_string
    (match entry_json e with
    | Obs.Json.Obj fields ->
        Obs.Json.Obj (fields @ [ ("crc", Obs.Json.Str (Printf.sprintf "%08x" crc)) ])
    | other -> other)

let str_member k j =
  match Obs.Json.member k j with Some (Obs.Json.Str s) -> s | _ -> ""

let num_member k j =
  match Obs.Json.member k j with Some (Obs.Json.Num v) -> v | _ -> 0.0

let bool_member k j =
  match Obs.Json.member k j with Some (Obs.Json.Bool b) -> b | _ -> false

let num_map_member k j =
  match Obs.Json.member k j with
  | Some (Obs.Json.Obj l) ->
      List.filter_map
        (function k, Obs.Json.Num v -> Some (k, v) | _ -> None)
        l
  | _ -> []

let decode j =
  {
    h_time = num_member "time" j;
    h_commit = str_member "commit" j;
    h_label = str_member "label" j;
    h_program = str_member "program" j;
    h_scales =
      (match Obs.Json.member "scales" j with
      | Some (Obs.Json.Arr l) ->
          List.filter_map
            (function Obs.Json.Num v -> Some (int_of_float v) | _ -> None)
            l
      | _ -> []);
    h_slopes = num_map_member "slopes" j;
    h_waits = num_map_member "waits" j;
    h_degraded = bool_member "degraded" j;
    h_coverage = num_member "coverage" j;
    h_detect_seconds = num_member "detect_seconds" j;
  }

let entry_of_line line =
  match Obs.Json.of_string line with
  | Error e -> Error ("malformed JSON: " ^ e)
  | Ok (Obs.Json.Obj fields) -> (
      match List.assoc_opt "crc" fields with
      | Some (Obs.Json.Str hex) -> (
          let payload_fields = List.filter (fun (k, _) -> k <> "crc") fields in
          let payload = Obs.Json.to_string (Obs.Json.Obj payload_fields) in
          match int_of_string_opt ("0x" ^ hex) with
          | Some want when want = crc32 payload ->
              Ok (decode (Obs.Json.Obj payload_fields))
          | Some _ -> Error "crc mismatch"
          | None -> Error "unparsable crc")
      | Some _ | None -> Error "missing crc")
  | Ok _ -> Error "line is not an object"

(* --- file I/O --- *)

let append ~path e =
  Obs.with_span "history.append" ~args:[ ("path", path) ] @@ fun () ->
  let dir = Filename.dirname path in
  (if dir <> "." && dir <> "" && not (Sys.file_exists dir) then
     try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* a crashed appender can leave a torn final line with no newline;
     start on a fresh line so the new row is not glued to the wreckage
     (the torn line stays damaged and is dropped on load, as it would
     have been anyway) *)
  let torn_tail =
    Sys.file_exists path
    &&
    match open_in_bin path with
    | exception Sys_error _ -> false
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let len = in_channel_length ic in
            len > 0
            &&
            (seek_in ic (len - 1);
             input_char ic <> '\n'))
  in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if torn_tail then output_char oc '\n';
      output_string oc (entry_line e);
      output_char oc '\n');
  Obs.Metrics.incr "history.appends"

type load_result = { entries : entry list; dropped : int }

let load ~path =
  Obs.with_span "history.load" ~args:[ ("path", path) ] @@ fun () ->
  if not (Sys.file_exists path) then { entries = []; dropped = 0 }
  else begin
    let ic = open_in path in
    let entries = ref [] and dropped = ref 0 in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            if String.trim line <> "" then
              match entry_of_line line with
              | Ok e -> entries := e :: !entries
              | Error _ -> incr dropped
          done
        with End_of_file -> ());
    Obs.Metrics.incr ~by:(List.length !entries) "history.entries_loaded";
    Obs.Metrics.incr ~by:!dropped "history.lines_dropped";
    { entries = List.rev !entries; dropped = !dropped }
  end

(* --- trend queries --- *)

let tracked_vertices entries =
  List.concat_map (fun e -> List.map fst e.h_slopes) entries
  |> List.sort_uniq compare

let slope_trend entries ~key =
  List.map (fun e -> List.assoc_opt key e.h_slopes) entries

let ramp = ".:-=+*#%@"

let sparkline series =
  let present = List.filter_map Fun.id series in
  match present with
  | [] -> String.concat "" (List.map (fun _ -> " ") series)
  | _ ->
      let lo = List.fold_left min infinity present
      and hi = List.fold_left max neg_infinity present in
      let levels = String.length ramp in
      let char_of v =
        if hi -. lo < 1e-12 then ramp.[3] (* flat series *)
        else begin
          let idx =
            int_of_float ((v -. lo) /. (hi -. lo) *. float_of_int (levels - 1))
          in
          ramp.[max 0 (min (levels - 1) idx)]
        end
      in
      let buf = Buffer.create (List.length series) in
      List.iter
        (function
          | None -> Buffer.add_char buf ' '
          | Some v -> Buffer.add_char buf (char_of v))
        series;
      Buffer.contents buf
