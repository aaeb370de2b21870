(* Tests for the core facade: static analysis step, profiled runs,
   pipeline, artifacts, experiments, viewer and the Fig. 2 delay
   injection scenario. *)

open Scalana_mlang
open Scalana_runtime
open Testutil

let test_static_analyze () =
  let prog = fig3_program () in
  let static = Scalana.Static.analyze prog in
  check_bool "psg nonempty" true
    (Scalana_psg.Psg.n_vertices (Scalana.Static.psg static) > 0);
  check_bool "stats consistent" true
    (static.stats.Scalana_psg.Stats.vbc >= static.stats.Scalana_psg.Stats.vac)

let test_static_rejects_invalid () =
  let b = Builder.create ~file:"bad.mmp" ~name:"bad" () in
  Builder.func b "main" (fun () -> [ Builder.call b "ghost" ]);
  let prog = Builder.program b in
  match Scalana.Static.analyze prog with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_static_overhead_measurable () =
  let prog = (Scalana_apps.Registry.find "cg").make () in
  let pct = Scalana.Static.static_overhead prog in
  check_bool "positive" true (pct > 0.0);
  check_bool "below base compile" true (pct < 100.0)

let test_static_rejects_negative_depth () =
  let prog = (Scalana_apps.Registry.find "zeusmp").make () in
  ignore (Scalana.Static.analyze ~max_loop_depth:0 prog : Scalana.Static.t);
  match Scalana.Static.analyze ~max_loop_depth:(-1) prog with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      check_bool "names the depth" true
        (Str.string_match (Str.regexp ".*max_loop_depth -1") msg 0)

let test_prof_run_and_overhead () =
  let entry = Scalana_apps.Registry.find "cg" in
  let static = Scalana.Static.analyze (entry.make ()) in
  let run =
    Scalana.Prof.run ~cost:entry.cost ~measure_overhead:true static ~nprocs:8 ()
  in
  check_int "nprocs" 8 run.nprocs;
  (match Scalana.Prof.overhead_percent run with
  | Some pct ->
      check_bool "overhead in a sane band" true (pct > 0.0 && pct < 25.0)
  | None -> Alcotest.fail "overhead requested but missing");
  check_bool "samples collected" true (run.data.total_samples > 0)

let test_prof_refines_indirect () =
  let static = Scalana.Static.analyze (recursion_program ()) in
  let before = Scalana_psg.Psg.n_vertices (Scalana.Static.psg static) in
  let _run = Scalana.Prof.run static ~nprocs:4 () in
  let after = Scalana_psg.Psg.n_vertices (Scalana.Static.psg static) in
  check_bool "PSG refined with runtime targets" true (after > before)

let test_pipeline_end_to_end () =
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let pipe =
    Scalana.Pipeline.run ~cost:entry.cost ~scales:[ 4; 8; 16 ] (entry.make ())
  in
  check_int "three runs" 3 (List.length pipe.runs);
  check_bool "detect cost measured" true (pipe.detect_seconds >= 0.0);
  check_bool "report nonempty" true (String.length pipe.report > 100);
  check_bool "root causes found" true (pipe.analysis.causes <> [])

let test_fig2_injected_delay () =
  (* the motivating example: a delay planted in one process of NPB-CG is
     traced back to that rank's computation *)
  let entry = Scalana_apps.Registry.find "cg" in
  let prog = entry.make () in
  (* find the spmv comp's source line to target the injection *)
  let spmv_loc = ref None in
  Ast.iter_program
    (fun s ->
      match s.Ast.node with
      | Ast.Comp { label = Some "spmv"; _ } -> spmv_loc := Some s.Ast.loc
      | _ -> ())
    prog;
  let loc = Option.get !spmv_loc in
  let inject = Inject.create [ Inject.delay ~ranks:[ 4 ] ~loc 1.0 ] in
  let pipe =
    Scalana.Pipeline.run ~cost:entry.cost ~inject ~scales:[ 8 ] prog
  in
  (* the abnormal detector flags the injected rank at the spmv vertex *)
  let hit =
    List.exists
      (fun (f : Scalana_detect.Abnormal.finding) ->
        let v = Scalana_psg.Psg.vertex (Scalana.Static.psg pipe.static) f.vertex in
        Loc.equal v.Scalana_psg.Vertex.loc loc && List.mem 4 f.ranks)
      pipe.analysis.abnormal
  in
  check_bool "injected rank flagged at spmv" true hit;
  (* and a root-cause path terminates on rank 4 *)
  check_bool "a cause blames rank 4" true
    (List.exists
       (fun (c : Scalana_detect.Rootcause.cause) ->
         List.mem 4 c.culprit_ranks)
       pipe.analysis.causes)


let test_pipeline_accessors () =
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let pipe =
    Scalana.Pipeline.run ~cost:entry.cost ~scales:[ 4; 8 ] (entry.make ())
  in
  let locs =
    List.map
      (fun (c : Scalana_detect.Rootcause.cause) -> c.cause_loc)
      pipe.analysis.causes
  in
  let labels = Scalana.Pipeline.root_cause_labels pipe in
  check_int "locs match labels" (List.length locs) (List.length labels);
  List.iter
    (fun loc ->
      check_string "locs point into the program" "zeusmp.mmp" loc.Loc.file)
    locs;
  (* what the PPGs own beyond their profiles is accounted: every scale
     lists at least one touched vertex *)
  check_bool "ppg storage accounted" true
    (Scalana.Pipeline.ppg_storage_bytes pipe > 0)

let test_param_override () =
  (* runtime parameter overrides shrink the run proportionally *)
  let entry = Scalana_apps.Registry.find "ep" in
  let prog = entry.make () in
  let elapsed params =
    (Exec.run ~cfg:(Exec.config ~nprocs:4 ~params ()) prog).Exec.elapsed
  in
  let t_full = elapsed [] in
  let t_small = elapsed [ ("m", 9_000_000_000) ] in
  check_bool "override shrinks the run" true
    (t_small < 0.5 *. t_full && t_small > 0.1 *. t_full)

let test_artifact_roundtrip () =
  let dir = Filename.temp_file "scalana" "" in
  Sys.remove dir;
  let entry = Scalana_apps.Registry.find "cg" in
  let static = Scalana.Static.analyze (entry.make ()) in
  Scalana.Artifact.save_static dir static;
  let run = Scalana.Prof.run ~cost:entry.cost static ~nprocs:4 () in
  Scalana.Artifact.save_run dir run;
  let run8 = Scalana.Prof.run ~cost:entry.cost static ~nprocs:8 () in
  Scalana.Artifact.save_run dir run8;
  let session = Scalana.Artifact.load_session dir in
  check_int "two runs" 2 (List.length session.runs);
  Alcotest.(check (list int))
    "sorted scales" [ 4; 8 ]
    (List.map fst session.runs);
  check_bool "program preserved" true
    (String.equal session.static.program.pname "npb-cg");
  (* detection works on the reloaded session *)
  let pipe = Scalana.Pipeline.detect_session session in
  check_bool "report renders" true (String.length pipe.report > 0)

(* The stored static artifact of every registry program, byte for byte:
   the 9-byte header (magic and format version), then the digest of the
   payload after it — the PSGs, the attribution index, the def-use
   summary and the communication-cost analysis the session carries.  A
   format bump moves the header only.  The Table II roster comes first,
   then the weak-scaled and elastic entries and the optimized variants. *)
let expected_static_header = "SCALANA2\004"

let expected_static_artifact_digests =
  [
    ("bt", "d84f0fa051537e76583cc2d97c66c4a8");
    ("cg", "fc4fc521cb27526036a7342923f60097");
    ("ep", "2e69f142273994177caa9394cbdb7e4e");
    ("ft", "1b1d4aa5684e1f9ae374303176dd318e");
    ("mg", "9597bf58d645c8922c8223c1ff1e3895");
    ("sp", "b57f2ce4cf4549d1c5cf7d316d5f719b");
    ("lu", "45d298abff4244e72d716cbcf8e9e33a");
    ("is", "c840219a38c82ecefcdc62b6cd5225a9");
    ("sst", "e7e95cc85f0e49bfb907b8b9fe70d060");
    ("nekbone", "093db2e05b1ca8c745df20731327e2b0");
    ("zeusmp", "15a0f739dc40759811c37d38f385827c");
    ("cg-weak", "f112dfd533dbfed034ea4a9f3b964513");
    ("cg-shrink", "2ad92b5806d648ca932678c16375bf04");
    ("halo-grow", "f21fce7deb20c6e8c1d84482f48c1081");
    ("sst optimized", "397c1ab0d179d14a3dae74995b0eba89");
    ("nekbone optimized", "f2d468741702764be59f106ad31a39c6");
    ("zeusmp optimized", "19ed1c7b0d34dd752b3f5d25d23f4304");
  ]

let static_pin_programs =
  let open Scalana_apps.Registry in
  List.map
    (fun name -> (name, fun () -> (find name).make ()))
    (names @ [ "cg-weak"; "cg-shrink"; "halo-grow" ])
  @ List.filter_map
      (fun e ->
        if e.has_optimized then
          Some (e.name ^ " optimized", fun () -> e.make ~optimized:true ())
        else None)
      all

let test_static_artifact_digests () =
  check_int "one digest per program" (List.length static_pin_programs)
    (List.length expected_static_artifact_digests);
  let header = String.length expected_static_header in
  List.iter
    (fun (name, make) ->
      let dir = Filename.temp_file "scalana" "" in
      Sys.remove dir;
      Scalana.Artifact.save_static dir (Scalana.Static.analyze (make ()));
      let path = Scalana.Artifact.static_path dir in
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      Sys.rmdir dir;
      check_string (name ^ " static artifact header") expected_static_header
        (String.sub bytes 0 header);
      check_string (name ^ " static artifact payload")
        (List.assoc name expected_static_artifact_digests)
        (Digest.to_hex
           (Digest.string
              (String.sub bytes header (String.length bytes - header)))))
    static_pin_programs

let test_artifact_bad_magic () =
  let f = Filename.temp_file "scalana" ".static" in
  let oc = open_out f in
  output_string oc "NOTSCALANA";
  close_out oc;
  match (Scalana.Artifact.load_value f : Scalana.Static.t) with
  | _ -> Alcotest.fail "expected failure"
  | exception Scalana.Artifact.Error (Scalana.Artifact.Bad_magic _) -> ()

(* --- salvage properties of the artifact record stream --- *)

(* A small fixture: a stream of [k] records with distinct payloads, plus
   the byte offset of every record boundary (header included). *)
let stream_fixture k =
  let path = Filename.temp_file "scalana" ".prof" in
  let values = List.init k (fun i -> (i, String.make (20 + (i * 7)) 'x')) in
  Scalana.Artifact.write_values path values;
  let boundaries = ref [] in
  let pos = ref (String.length Scalana.Artifact.magic + 1) in
  List.iter
    (fun v ->
      boundaries := !pos :: !boundaries;
      pos := !pos + 8 + String.length (Marshal.to_string v []))
    values;
  boundaries := !pos :: !boundaries;
  (path, values, List.rev !boundaries)

let copy_file src dst =
  let ic = open_in_bin src in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

let is_prefix_of shorter longer =
  List.length shorter <= List.length longer
  && List.for_all2 (fun a b -> a = b)
       shorter
       (List.filteri (fun i _ -> i < List.length shorter) longer)

let test_artifact_truncate_every_boundary () =
  let path, values, boundaries = stream_fixture 5 in
  let tmp = Filename.temp_file "scalana" ".trunc" in
  (* cut exactly at each record boundary: a shorter but undamaged stream *)
  List.iteri
    (fun i b ->
      copy_file path tmp;
      Scalana_runtime.Faults.truncate_file tmp ~at_byte:b;
      let s : (int * string) Scalana.Artifact.salvage =
        Scalana.Artifact.read_stream tmp
      in
      check_int (Printf.sprintf "boundary %d: records" i) i
        (List.length s.values);
      check_bool
        (Printf.sprintf "boundary %d: undamaged" i)
        true (s.damage = None))
    boundaries;
  (* cut at every single byte offset: the intact prefix survives and the
     loss is reported as Truncated with the right record count *)
  let last = List.nth boundaries (List.length boundaries - 1) in
  for at_byte = 0 to last - 1 do
    if not (List.mem at_byte boundaries) then begin
    copy_file path tmp;
    Scalana_runtime.Faults.truncate_file tmp ~at_byte;
    let s : (int * string) Scalana.Artifact.salvage =
      Scalana.Artifact.read_stream tmp
    in
    let expect_records =
      List.length (List.filter (fun b -> b <= at_byte) (List.tl boundaries))
    in
    if not (is_prefix_of s.values values) then
      Alcotest.failf "cut@%d: salvage is not a prefix" at_byte;
    check_int (Printf.sprintf "cut@%d: records" at_byte) expect_records
      (List.length s.values);
    match s.damage with
    | Some (Scalana.Artifact.Truncated { records_ok; _ }) ->
        check_int (Printf.sprintf "cut@%d: records_ok" at_byte) expect_records
          records_ok
    | Some (Scalana.Artifact.Bad_magic _) when at_byte < 8 ->
        Alcotest.failf "cut@%d: magic prefix reported as foreign" at_byte
    | Some e ->
        Alcotest.failf "cut@%d: unexpected damage %s" at_byte
          (Scalana.Artifact.error_message e)
    | None -> Alcotest.failf "cut@%d: truncation not reported" at_byte
    end
  done

let test_artifact_bit_flip_salvage () =
  let path, values, boundaries = stream_fixture 4 in
  let tmp = Filename.temp_file "scalana" ".flip" in
  let size = List.nth boundaries (List.length boundaries - 1) in
  (* flip every byte in turn: salvage must return an exact prefix and
     always report the damage *)
  for at_byte = 0 to size - 1 do
    copy_file path tmp;
    Scalana_runtime.Faults.corrupt_byte tmp ~at_byte ~xor:0x40 ();
    let s : (int * string) Scalana.Artifact.salvage =
      Scalana.Artifact.read_stream tmp
    in
    if not (is_prefix_of s.values values) then
      Alcotest.failf "flip@%d: salvage is not a prefix" at_byte;
    (match s.damage with
    | Some _ -> ()
    | None -> Alcotest.failf "flip@%d: corruption not reported" at_byte);
    (* records before the flipped one always survive *)
    let intact_before =
      List.length
        (List.filter (fun b -> b <= at_byte) (List.tl boundaries))
      |> min (List.length values)
    in
    if at_byte >= List.hd boundaries then
      check_bool
        (Printf.sprintf "flip@%d: prefix survives" at_byte)
        true
        (List.length s.values >= min intact_before (List.length values))
  done;
  (* a payload flip specifically lands on the checksum, not a crash *)
  copy_file path tmp;
  Scalana_runtime.Faults.corrupt_byte tmp ~at_byte:(List.hd boundaries + 8)
    ~xor:0x01 ();
  let s : (int * string) Scalana.Artifact.salvage =
    Scalana.Artifact.read_stream tmp
  in
  match s.damage with
  | Some (Scalana.Artifact.Checksum_mismatch { record; _ }) ->
      check_int "flip hits record 0" 0 record
  | Some e -> Alcotest.failf "unexpected: %s" (Scalana.Artifact.error_message e)
  | None -> Alcotest.fail "payload flip undetected"

let test_artifact_decode_failure_surfaced () =
  (* a run file with valid magic and CRC but an undecodable payload must
     surface as a named issue, not vanish and not crash (satellite: the
     old loader dropped it silently) *)
  let dir = Filename.temp_file "scalana" "" in
  Sys.remove dir;
  let entry = Scalana_apps.Registry.find "cg" in
  let static = Scalana.Static.analyze (entry.make ()) in
  Scalana.Artifact.save_static dir static;
  let run = Scalana.Prof.run ~cost:entry.cost static ~nprocs:4 () in
  Scalana.Artifact.save_run dir run;
  (* hand-craft the damaged profile: garbage payload, correct checksum *)
  let bad = Scalana.Artifact.run_path dir 8 in
  let oc = open_out_bin bad in
  output_string oc Scalana.Artifact.magic;
  output_byte oc Scalana.Artifact.format_version;
  let payload = "certainly not marshalled data" in
  output_binary_int oc (String.length payload);
  output_binary_int oc (Scalana.Artifact.crc32 payload);
  output_string oc payload;
  close_out oc;
  let runs, issues = Scalana.Artifact.load_runs_salvage dir in
  Alcotest.(check (list int)) "good run kept" [ 4 ] (List.map fst runs);
  check_int "one issue" 1 (List.length issues);
  let issue = List.hd issues in
  (match issue.Scalana.Artifact.error with
  | Scalana.Artifact.Decode_failure { record = 0; _ } -> ()
  | e -> Alcotest.failf "expected decode failure, got %s"
           (Scalana.Artifact.error_message e));
  check_bool "warning names the file" true
    (try
       ignore
         (Str.search_forward
            (Str.regexp_string "run_0008.prof")
            (Scalana.Artifact.issue_message issue)
            0);
       true
     with Not_found -> false)

(* A profile an earlier, appending build wrote holds one record per save
   of its scale: the newest intact one wins.  A save replaces the whole
   file.  An injected delay tells the two runs apart. *)
let test_artifact_append_last_wins () =
  let dir = Filename.temp_file "scalana" "" in
  Sys.remove dir;
  let entry = Scalana_apps.Registry.find "cg" in
  let static = Scalana.Static.analyze (entry.make ()) in
  Scalana.Artifact.save_static dir static;
  let r1 = Scalana.Prof.run ~cost:entry.cost static ~nprocs:4 () in
  let r2 =
    Scalana.Prof.run ~cost:entry.cost
      ~inject:(Inject.create [ Inject.delay ~ranks:[ 1 ] 0.05 ])
      static ~nprocs:4 ()
  in
  let elapsed (r : Scalana.Prof.run) = r.result.Exec.elapsed in
  check_bool "the two runs differ" true (elapsed r1 <> elapsed r2);
  let path = Scalana.Artifact.run_path dir 4 in
  Scalana.Artifact.write_values path [ r1; r2 ];
  (* two records in one file; the newest intact one wins *)
  let s : Scalana.Prof.run Scalana.Artifact.salvage =
    Scalana.Artifact.read_stream path
  in
  check_int "both records intact" 2 (List.length s.values);
  let session = Scalana.Artifact.load_session dir in
  check_int "one run" 1 (List.length session.runs);
  check_bool "no issues" true (session.issues = []);
  check_bool "the newest record loaded" true
    (elapsed (List.assoc 4 session.runs) = elapsed r2);
  (* truncating into the second record falls back to the first *)
  let ic = open_in_bin path in
  let full = in_channel_length ic in
  close_in ic;
  Scalana_runtime.Faults.truncate_file path ~at_byte:(full - 10);
  let runs, issues = Scalana.Artifact.load_runs_salvage dir in
  check_int "salvaged to first record" 1 (List.length runs);
  check_int "damage reported" 1 (List.length issues);
  check_bool "the first record loaded" true
    (elapsed (List.assoc 4 runs) = elapsed r1);
  (* two saves of one scale leave one record, the newer run *)
  Scalana.Artifact.save_run dir r1;
  Scalana.Artifact.save_run dir r2;
  let s : Scalana.Prof.run Scalana.Artifact.salvage =
    Scalana.Artifact.read_stream path
  in
  check_bool "re-saved file reads clean" true (s.damage = None);
  check_int "one record after two saves" 1 (List.length s.values);
  check_bool "the record is the newer run" true
    (elapsed (List.hd s.values) = elapsed r2)

(* A save that raises part-way (here Marshal refusing a closure, after
   the header is written) leaves each artifact as the last completed
   save wrote it, with its mode, and no temporary file behind. *)
let test_artifact_interrupted_save () =
  let dir = Filename.temp_file "scalana" "" in
  Sys.remove dir;
  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  let entry = Scalana_apps.Registry.find "cg" in
  let static = Scalana.Static.analyze (entry.make ()) in
  Scalana.Artifact.save_static dir static;
  let static_digest = digest static in
  let run = Scalana.Prof.run ~cost:entry.cost static ~nprocs:4 () in
  Scalana.Artifact.save_run dir run;
  let paths =
    [ Scalana.Artifact.static_path dir; Scalana.Artifact.run_path dir 4 ]
  in
  List.iter
    (fun path ->
      match Scalana.Artifact.write_values path [ (fun x -> x + 1) ] with
      | () -> Alcotest.failf "%s: saving a closure did not raise" path
      | exception Invalid_argument _ -> ())
    paths;
  let session = Scalana.Artifact.load_session dir in
  check_bool "no issues" true (session.issues = []);
  check_string "static artifact is the original" static_digest
    (digest session.static);
  check_string "run is the original" (digest run)
    (digest (List.assoc 4 session.runs));
  check_bool "no temporary file left" false
    (Array.exists
       (fun f -> Filename.check_suffix f ".tmp")
       (Sys.readdir dir));
  let probe = Filename.concat dir "probe" in
  close_out (open_out_bin probe);
  let perm path = (Unix.stat path).Unix.st_perm in
  List.iter
    (fun path ->
      check_int (Filename.basename path ^ " mode") (perm probe) (perm path))
    paths

(* A cg session at np 4, 8 and 16 in a fresh directory. *)
let cg_session () =
  let dir = Filename.temp_file "scalana" "" in
  Sys.remove dir;
  let entry = Scalana_apps.Registry.find "cg" in
  let static = Scalana.Static.analyze (entry.make ()) in
  Scalana.Artifact.save_static dir static;
  List.iter
    (fun nprocs ->
      Scalana.Artifact.save_run dir
        (Scalana.Prof.run ~cost:entry.cost static ~nprocs ()))
    [ 4; 8; 16 ];
  dir

let contains needle s =
  try
    ignore (Str.search_forward (Str.regexp_string needle) s 0);
    true
  with Not_found -> false

(* A copied profile carries the scale it was recorded at, not the one
   its new name gives: it is skipped and reported, so np=4 is not fitted
   twice, and the session degrades. *)
let test_artifact_wrong_scale () =
  let dir = cg_session () in
  copy_file
    (Scalana.Artifact.run_path dir 4)
    (Scalana.Artifact.run_path dir 32);
  let runs, issues = Scalana.Artifact.load_runs_salvage dir in
  Alcotest.(check (list int))
    "each scale once" [ 4; 8; 16 ] (List.map fst runs);
  (match issues with
  | [ ({ error = Scalana.Artifact.Wrong_scale { nprocs = 4; _ }; _ } as i) ] ->
      check_bool "names the file" true
        (contains "run_0032.prof" (Scalana.Artifact.issue_message i))
  | _ -> Alcotest.fail "expected one wrong-scale issue");
  let pipe =
    Scalana.Pipeline.detect_session (Scalana.Artifact.load_session dir)
  in
  check_bool "session degraded" true (Scalana.Pipeline.degraded pipe)

(* Files an older build wrote (version byte 2 or 3, CRCs intact) are
   refused by version before any payload is decoded into the current
   shape: version 3 held the p2p edges as a hash table of records,
   version 2 per-rank tables of boxed vectors. *)
let test_artifact_older_version () =
  List.iter
    (fun old ->
      let dir = cg_session () in
      let set_version path =
        Scalana_runtime.Faults.corrupt_byte path
          ~at_byte:(String.length Scalana.Artifact.magic)
          ~xor:(Scalana.Artifact.format_version lxor old) ()
      in
      let static = Scalana.Artifact.static_path dir
      and run = Scalana.Artifact.run_path dir 4 in
      set_version static;
      set_version run;
      let is_old = function
        | Some (Scalana.Artifact.Bad_version { version; _ }) -> version = old
        | _ -> false
      in
      let r : Scalana.Prof.run Scalana.Artifact.salvage =
        Scalana.Artifact.read_stream run
      in
      check_bool
        (Printf.sprintf "v%d run file refused" old)
        true
        (r.values = [] && is_old r.damage);
      (match Scalana.Artifact.load_static dir with
      | _ -> Alcotest.failf "v%d static file accepted" old
      | exception Scalana.Artifact.Error e ->
          check_bool
            (Printf.sprintf "v%d static file refused" old)
            true
            (is_old (Some e)));
      let runs, issues = Scalana.Artifact.load_runs_salvage dir in
      Alcotest.(check (list int))
        (Printf.sprintf "v%d: other scales kept" old)
        [ 8; 16 ] (List.map fst runs);
      check_bool
        (Printf.sprintf "v%d reported as Bad_version" old)
        true
        (List.exists
           (fun (i : Scalana.Artifact.issue) -> is_old (Some i.error))
           issues))
    [ 2; 3 ]

(* Re-profiling a scale whose profile has a torn tail, or was written by
   a build with another record shape, replaces the file with the new run
   alone: the session loads clean and the scale's run is the new one.
   An injected delay tells the new run's elapsed time from the old
   one's. *)
let test_artifact_resave_over_damage () =
  let entry = Scalana_apps.Registry.find "cg" in
  let static = Scalana.Static.analyze (entry.make ()) in
  let rerun () =
    Scalana.Prof.run ~cost:entry.cost
      ~inject:(Inject.create [ Inject.delay ~ranks:[ 1 ] 0.05 ])
      static ~nprocs:16 ()
  in
  List.iter
    (fun (damage, spoil) ->
      let dir = cg_session () in
      let path = Scalana.Artifact.run_path dir 16 in
      (* two records, as an earlier, appending build left a re-profiled
         scale, so a torn tail leaves one intact before it *)
      let old = Scalana.Prof.run ~cost:entry.cost static ~nprocs:16 () in
      Scalana.Artifact.write_values path [ old; old ];
      spoil path;
      let fresh = rerun () in
      check_bool (damage ^ ": the re-run's elapsed time differs") true
        (fresh.Scalana.Prof.result.Exec.elapsed
        <> old.Scalana.Prof.result.Exec.elapsed);
      Scalana.Artifact.save_run dir fresh;
      let s : Scalana.Prof.run Scalana.Artifact.salvage =
        Scalana.Artifact.read_stream path
      in
      check_bool (damage ^ ": the file reads clean") true (s.damage = None);
      check_int (damage ^ ": one record, the new run") 1
        (List.length s.values);
      let runs, issues = Scalana.Artifact.load_runs_salvage dir in
      check_int (damage ^ ": no issues") 0 (List.length issues);
      Alcotest.(check (list int))
        (damage ^ ": every scale") [ 4; 8; 16 ] (List.map fst runs);
      check_bool (damage ^ ": the new run is loaded") true
        ((List.assoc 16 runs).Scalana.Prof.result.Exec.elapsed
        = fresh.Scalana.Prof.result.Exec.elapsed))
    [
      ( "torn tail",
        fun path ->
          let len = In_channel.with_open_bin path In_channel.length in
          Scalana_runtime.Faults.truncate_file path
            ~at_byte:(Int64.to_int len - 10) );
      ( "older format",
        fun path ->
          Scalana_runtime.Faults.corrupt_byte path
            ~at_byte:(String.length Scalana.Artifact.magic)
            ~xor:(Scalana.Artifact.format_version lxor 3) () );
    ]

(* --- degraded pipelines --- *)

let test_pipeline_salvaged_session () =
  let dir = Filename.temp_file "scalana" "" in
  Sys.remove dir;
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let static = Scalana.Static.analyze (entry.make ()) in
  Scalana.Artifact.save_static dir static;
  List.iter
    (fun nprocs ->
      Scalana.Artifact.save_run dir
        (Scalana.Prof.run ~cost:entry.cost static ~nprocs ()))
    [ 4; 8; 16 ];
  (* clean session first: the report carries no data-quality section *)
  let clean = Scalana.Artifact.load_session dir in
  let clean_pipe = Scalana.Pipeline.detect_session clean in
  check_bool "clean session is clean" false
    (Scalana.Pipeline.degraded clean_pipe);
  let has needle s =
    try
      ignore (Str.search_forward (Str.regexp_string needle) s 0);
      true
    with Not_found -> false
  in
  check_bool "no quality section when clean" false
    (has "data quality" clean_pipe.report);
  (* now truncate the largest scale's profile mid-record *)
  Scalana_runtime.Faults.truncate_file
    (Scalana.Artifact.run_path dir 16)
    ~at_byte:100;
  let session = Scalana.Artifact.load_session dir in
  check_int "issue recorded" 1 (List.length session.issues);
  let pipe = Scalana.Pipeline.detect_session session in
  Alcotest.(check (list int))
    "surviving scales" [ 4; 8 ]
    (List.map fst pipe.runs);
  check_bool "pipeline degraded" true (Scalana.Pipeline.degraded pipe);
  check_bool "text report has quality section" true
    (has "data quality" pipe.report);
  check_bool "quality names the file" true
    (pipe.quality.Scalana_detect.Quality.artifact_issues <> []);
  check_bool "root causes still found" true (pipe.analysis.causes <> []);
  (* and the HTML report carries the section too *)
  let html = Scalana.Htmlreport.render pipe in
  check_bool "html has quality section" true (has "Data quality" html)

let test_pipeline_fault_kill_degrades () =
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let faults =
    Scalana_runtime.Faults.plan
      [ Scalana_runtime.Faults.kill_rank ~rank:1 ~after:0.01 () ]
  in
  let pipe =
    Scalana.Pipeline.run ~cost:entry.cost ~faults ~scales:[ 4; 8; 16 ]
      (entry.make ())
  in
  check_bool "degraded" true (Scalana.Pipeline.degraded pipe);
  check_bool "run issues recorded" true
    (pipe.quality.Scalana_detect.Quality.run_issues <> []);
  check_bool "coverage below 1" true
    (pipe.quality.Scalana_detect.Quality.rank_coverage < 1.0);
  List.iter
    (fun (r : Scalana_detect.Quality.run_issue) ->
      check_bool "rank 1 killed" true
        (List.mem 1 r.Scalana_detect.Quality.ri_killed))
    pipe.quality.Scalana_detect.Quality.run_issues;
  let has needle s =
    try
      ignore (Str.search_forward (Str.regexp_string needle) s 0);
      true
    with Not_found -> false
  in
  check_bool "report says degraded" true (has "data quality" pipe.report);
  check_bool "report lists the kill" true (has "killed ranks" pipe.report)

let test_pipeline_drop_scale () =
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let faults =
    Scalana_runtime.Faults.plan [ Scalana_runtime.Faults.drop_scale 16 ]
  in
  let pipe =
    Scalana.Pipeline.run ~cost:entry.cost ~faults ~scales:[ 4; 8; 16 ]
      (entry.make ())
  in
  Alcotest.(check (list int))
    "scale 16 never ran" [ 4; 8 ]
    (List.map fst pipe.runs);
  Alcotest.(check (list int))
    "drop recorded" [ 16 ]
    pipe.quality.Scalana_detect.Quality.dropped_scales;
  check_bool "degraded" true (Scalana.Pipeline.degraded pipe)

let test_pipeline_poison_quarantined () =
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let faults =
    Scalana_runtime.Faults.plan
      [ Scalana_runtime.Faults.poison_metric ~ranks:[ 0 ] ~prob:1.0 `Nan ]
  in
  let pipe =
    Scalana.Pipeline.run ~cost:entry.cost ~faults ~scales:[ 4; 8; 16 ]
      (entry.make ())
  in
  check_bool "values quarantined" true
    (pipe.quality.Scalana_detect.Quality.quarantined_values > 0);
  check_bool "degraded" true (Scalana.Pipeline.degraded pipe);
  (* the report still renders over the surviving ranks *)
  check_bool "report renders" true (String.length pipe.report > 100);
  (* and reads the cause rows through the quarantine: no figure in it is
     NaN ("total=nans", "imbalance=nanx") *)
  let nan_figure = Str.regexp "[^a-zA-Z]-?nan" in
  check_bool "no NaN in the report" false
    (try
       ignore (Str.search_forward nan_figure pipe.report 0);
       true
     with Not_found -> false);
  (* rank 0 is poisoned everywhere, so no backtracking walk may start
     there *)
  let _, largest = Scalana_ppg.Crossscale.largest pipe.crossscale in
  check_bool "non-scalable vertices found" true
    (pipe.analysis.Scalana_detect.Rootcause.nonscalable <> []);
  List.iter
    (fun (f : Scalana_detect.Nonscalable.finding) ->
      check_bool "walk does not start on the poisoned rank" true
        (Scalana_detect.Rootcause.start_rank largest ~vertex:f.vertex <> 0))
    pipe.analysis.Scalana_detect.Rootcause.nonscalable

let test_pipeline_fault_determinism () =
  (* same seed, same plan: byte-identical degraded reports *)
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let mk () =
    let faults =
      Scalana_runtime.Faults.plan ~seed:7
        [
          Scalana_runtime.Faults.kill_rank ~prob:0.7 ~rank:2 ~after:0.02 ();
          Scalana_runtime.Faults.poison_metric ~prob:0.05 `Negative;
        ]
    in
    (Scalana.Pipeline.run ~cost:entry.cost ~faults ~scales:[ 4; 8 ]
       (entry.make ()))
      .report
  in
  check_string "reports identical" (mk ()) (mk ())

let test_config_mapping () =
  let c = { Scalana.Config.default with abnorm_thd = 2.0; sampling_freq = 97.0 } in
  let ab = Scalana.Config.ab_config c in
  check_float "thd" 2.0 ab.Scalana_detect.Abnormal.abnorm_thd;
  let pc = Scalana.Config.profiler_config c in
  check_float "freq" 97.0 pc.Scalana_profile.Profiler.freq

let test_experiment_speedup_rows () =
  let entry = Scalana_apps.Registry.find "sst" in
  let rows =
    Scalana.Experiment.speedup ~cost:entry.cost ~make:entry.make ~baseline_np:4
      ~scales:[ 4; 16 ] ()
  in
  check_int "two rows" 2 (List.length rows);
  let r0 = List.hd rows in
  close "baseline speedup 1" 1.0 r0.Scalana.Experiment.base_speedup;
  close "baseline opt speedup 1" 1.0 r0.opt_speedup;
  let r1 = List.nth rows 1 in
  (* the array->map fix improves SST at scale (the paper's 73%@32) *)
  check_bool "improvement positive" true (r1.improvement_pct > 10.0);
  check_bool "opt scales better" true (r1.opt_speedup > r1.base_speedup)

let test_viewer_renders () =
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let pipe =
    Scalana.Pipeline.run ~cost:entry.cost ~scales:[ 4; 8 ] (entry.make ())
  in
  let text = Scalana.Viewer.show pipe in
  check_bool "has source view" true
    (try
       ignore (Str.search_forward (Str.regexp_string "source view") text 0);
       true
     with Not_found -> false);
  check_bool "summary lines" true
    (Scalana.Pipeline.root_cause_labels pipe <> [])

let test_mean_overhead_ordering () =
  let entry = Scalana_apps.Registry.find "mg" in
  (* each tool's overhead averaged over the scales, as Fig. 10 does *)
  let ms =
    List.concat_map
      (fun nprocs ->
        Scalana.Experiment.tool_comparison ~cost:entry.cost (entry.make ())
          ~nprocs)
      [ 4; 8 ]
  in
  let get k =
    let l =
      List.filter_map
        (fun (m : Scalana.Experiment.measurement) ->
          if m.tool = k then Some m.overhead_pct else None)
        ms
    in
    List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  check_bool "tracing most expensive" true
    (get Scalana.Experiment.Tracing_tool > get Scalana.Experiment.Scalana_tool);
  check_bool "scalana cheap" true (get Scalana.Experiment.Scalana_tool < 10.0)


let test_html_report () =
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let pipe =
    Scalana.Pipeline.run ~cost:entry.cost ~scales:[ 4; 8 ] (entry.make ())
  in
  let html = Scalana.Htmlreport.render pipe in
  let has needle =
    try
      ignore (Str.search_forward (Str.regexp_string needle) html 0);
      true
    with Not_found -> false
  in
  check_bool "is html" true (has "<!doctype html>");
  check_bool "has svg bars" true (has "<svg");
  check_bool "has causes" true (has "Root causes");
  check_bool "mentions bval" true (has "bval");
  (* escaping: raw angle brackets from expressions must not survive *)
  check_bool "escaped" true (not (has "1 << k"));
  let path = Filename.temp_file "scalana" ".html" in
  Scalana.Htmlreport.write pipe ~path;
  check_bool "file written" true (Sys.file_exists path && (Unix.stat path).Unix.st_size > 1000)

(* --- seeded property: the artifact record stream encodes byte-stably.
   Writing arbitrary records, reading them back and writing them again
   must reproduce the first file bit for bit — otherwise re-saved
   sessions would spuriously diff. *)

let prop_artifact_roundtrip_bytes =
  let payload =
    Prop.(
      map
        (fun (tag, len) -> (tag, String.make len 'p'))
        ~show:(fun (tag, s) ->
          Printf.sprintf "(%d, %d bytes)" tag (String.length s))
        (pair (int_range 0 1_000_000) (int_range 0 64)))
  in
  Prop.test ~count:25 "record stream round-trips byte-stably"
    (Prop.list_of ~max_len:6 payload)
    (fun values ->
      let write vs =
        let path = Filename.temp_file "scalana_prop" ".art" in
        Scalana.Artifact.write_values path vs;
        path
      in
      let read_bytes path =
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      let a = write values in
      let s : (int * string) Scalana.Artifact.salvage =
        Scalana.Artifact.read_stream a
      in
      let b = write s.Scalana.Artifact.values in
      let ok =
        s.Scalana.Artifact.damage = None
        && s.Scalana.Artifact.values = values
        && String.equal (read_bytes a) (read_bytes b)
      in
      Sys.remove a;
      Sys.remove b;
      ok)

(* --- elastic sessions, profiled and detected as the CLIs do --- *)

let contains needle hay =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

let test_pipeline_elastic_shrink_degraded () =
  let entry = Scalana_apps.Registry.find "cg-shrink" in
  let pipe =
    Scalana.Pipeline.detect_session
      (cli_session ~cost:entry.cost ?plan:entry.elastic_plan ~scales:[ 4; 8 ]
         (entry.make ()))
  in
  (* a mid-run failure is a degraded verdict: CI must not read it clean *)
  check_bool "degraded" true (Scalana.Pipeline.degraded pipe);
  check_bool "membership section" true
    (contains "elastic membership timeline" pipe.report);
  check_bool "stall attribution" true (contains "recovery-stall" pipe.report);
  check_bool "elastic evidence attached" true
    (pipe.analysis.Scalana_detect.Rootcause.elastic <> []);
  (* the fits see the time-weighted effective process count, strictly
     below nominal once a rank has left *)
  List.iter
    (fun (np, info) ->
      check_bool
        (Printf.sprintf "effective < nominal at np=%d" np)
        true
        (info.Elastic.effective < float_of_int np))
    pipe.analysis.Scalana_detect.Rootcause.elastic

let test_pipeline_elastic_grow_not_degraded () =
  let entry = Scalana_apps.Registry.find "halo-grow" in
  let pipe =
    Scalana.Pipeline.detect_session
      (cli_session ~cost:entry.cost ?plan:entry.elastic_plan ~scales:[ 4; 8 ]
         (entry.make ()))
  in
  (* a planned grow is not a failure: the session stays clean *)
  check_bool "not degraded" false (Scalana.Pipeline.degraded pipe);
  check_bool "membership section" true
    (contains "elastic membership timeline" pipe.report);
  List.iter
    (fun (np, info) ->
      check_bool
        (Printf.sprintf "effective > nominal at np=%d" np)
        true
        (info.Elastic.effective > float_of_int np))
    pipe.analysis.Scalana_detect.Rootcause.elastic

let test_pipeline_elastic_flag_off_identical () =
  (* a fixed-membership run carries no elastic summary, so detection
     attaches none and the report has no elastic section *)
  let entry = Scalana_apps.Registry.find "cg" in
  let pipe =
    Scalana.Pipeline.detect_session
      (cli_session ~cost:entry.cost ~scales:[ 4; 8 ] (entry.make ()))
  in
  check_bool "no elastic summary" true
    (pipe.analysis.Scalana_detect.Rootcause.elastic = []);
  check_bool "no membership section" false
    (contains "elastic membership timeline" pipe.report);
  check_bool "no recovery stall" false (contains "recovery-stall" pipe.report)

(* A tiny iteration-sliced ring so the seeded property below stays
   cheap: same shape as the registry elastic apps, two orders of
   magnitude less work. *)
let elastic_ring () =
  let open Expr.Infix in
  let b = Builder.create ~file:"ering.mmp" ~name:"ering" () in
  Builder.param b "w" 20_000;
  Builder.param b "iter_lo" 0;
  Builder.param b "iter_hi" 8;
  Builder.func b "main" (fun () ->
      [
        Builder.loop b ~label:"iter" ~var:"it"
          ~count:(p "iter_hi" - p "iter_lo")
          (fun () ->
            [
              Builder.comp b ~label:"work" ~flops:(p "w") ~mem:(p "w") ();
              Builder.sendrecv b
                ~dest:((rank + i 1) % np)
                ~sbytes:(i 2048)
                ~src:((rank - i 1 + np) % np)
                ~rbytes:(i 2048) ();
            ]);
        Builder.allreduce b ~bytes:(i 8);
      ]);
  Builder.program b

let prop_elastic_same_seed_byte_identical =
  let arb = Prop.pair (Prop.int_range 1 7) (Prop.int_range 0 3) in
  Prop.test ~count:6 "same-seed elastic sessions render byte-identical" arb
    (fun (iter, rank) ->
      (* one shrink plus one (possibly out-of-range, then ignored) grow *)
      let plan =
        Elastic.plan ~total_iters:8
          [
            Elastic.shrink_at ~iter ~rank;
            Elastic.grow_at ~iter:(iter + 2) ~ranks:1;
          ]
      in
      let report () =
        (Scalana.Pipeline.detect_session
           (cli_session ~plan ~scales:[ 4 ] (elastic_ring ())))
          .Scalana.Pipeline.report
      in
      String.equal (report ()) (report ()))

let test_retry_backoff () =
  (* the ladder itself: deterministic, doubling *)
  close "attempt 1" 0.05 (Scalana.Prof.backoff_delay ~attempt:1);
  close "attempt 2" 0.1 (Scalana.Prof.backoff_delay ~attempt:2);
  close "attempt 3" 0.2 (Scalana.Prof.backoff_delay ~attempt:3);
  (* a persistent kill forces every retry: one recorded backoff per
     extra attempt, in ladder order, surfaced in the quality section *)
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let faults =
    Scalana_runtime.Faults.plan
      [ Scalana_runtime.Faults.kill_rank ~rank:1 ~after:0.01 () ]
  in
  let pipe =
    Scalana.Pipeline.run ~cost:entry.cost ~faults ~scales:[ 4 ]
      (entry.make ())
  in
  let _, run = List.hd pipe.runs in
  check_bool "retried" true (run.Scalana.Prof.attempts > 1);
  check_int "one backoff per retry"
    (run.Scalana.Prof.attempts - 1)
    (List.length run.Scalana.Prof.retry_backoff);
  List.iteri
    (fun idx d ->
      close
        (Printf.sprintf "ladder step %d" (idx + 1))
        (Scalana.Prof.backoff_delay ~attempt:(idx + 1))
        d)
    run.Scalana.Prof.retry_backoff;
  check_bool "quality mentions backoff" true (contains "backoff" pipe.report)

let () =
  Alcotest.run "core"
    [
      ( "static",
        [
          Alcotest.test_case "analyze" `Quick test_static_analyze;
          Alcotest.test_case "rejects invalid" `Quick test_static_rejects_invalid;
          Alcotest.test_case "overhead measurable" `Slow
            test_static_overhead_measurable;
          Alcotest.test_case "rejects negative loop depth" `Quick
            test_static_rejects_negative_depth;
        ] );
      ( "prof",
        [
          Alcotest.test_case "run and overhead" `Quick test_prof_run_and_overhead;
          Alcotest.test_case "refines indirect calls" `Quick
            test_prof_refines_indirect;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "end to end" `Quick test_pipeline_end_to_end;
          Alcotest.test_case "fig2 injected delay" `Quick
            test_fig2_injected_delay;
          Alcotest.test_case "accessors" `Quick test_pipeline_accessors;
          Alcotest.test_case "param override" `Quick test_param_override;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "roundtrip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_artifact_bad_magic;
          Alcotest.test_case "truncate at every offset" `Quick
            test_artifact_truncate_every_boundary;
          Alcotest.test_case "bit-flip salvage" `Quick
            test_artifact_bit_flip_salvage;
          Alcotest.test_case "decode failure surfaced" `Quick
            test_artifact_decode_failure_surfaced;
          Alcotest.test_case "append, last record wins" `Quick
            test_artifact_append_last_wins;
          prop_artifact_roundtrip_bytes;
          Alcotest.test_case "profile for the wrong scale is an issue" `Quick
            test_artifact_wrong_scale;
          Alcotest.test_case "older format is Bad_version" `Quick
            test_artifact_older_version;
          Alcotest.test_case "static artifacts pinned by digest" `Quick
            test_static_artifact_digests;
          Alcotest.test_case "re-profiling over a damaged profile" `Quick
            test_artifact_resave_over_damage;
          Alcotest.test_case "an interrupted save keeps the old file" `Quick
            test_artifact_interrupted_save;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "salvaged session" `Quick
            test_pipeline_salvaged_session;
          Alcotest.test_case "rank kill degrades" `Quick
            test_pipeline_fault_kill_degrades;
          Alcotest.test_case "dropped scale" `Quick test_pipeline_drop_scale;
          Alcotest.test_case "poison quarantined" `Quick
            test_pipeline_poison_quarantined;
          Alcotest.test_case "fault determinism" `Quick
            test_pipeline_fault_determinism;
        ] );
      ( "config",
        [ Alcotest.test_case "mapping" `Quick test_config_mapping ] );
      ( "experiment",
        [
          Alcotest.test_case "speedup rows" `Quick test_experiment_speedup_rows;
          Alcotest.test_case "mean overhead ordering" `Slow
            test_mean_overhead_ordering;
        ] );
      ( "viewer",
        [
          Alcotest.test_case "renders" `Quick test_viewer_renders;
          Alcotest.test_case "html report" `Quick test_html_report;
        ] );
      ( "elastic",
        [
          Alcotest.test_case "shrink degrades the verdict" `Quick
            test_pipeline_elastic_shrink_degraded;
          Alcotest.test_case "grow stays clean" `Quick
            test_pipeline_elastic_grow_not_degraded;
          Alcotest.test_case "flag off is byte-identical" `Quick
            test_pipeline_elastic_flag_off_identical;
          prop_elastic_same_seed_byte_identical;
          Alcotest.test_case "retry backoff ladder" `Quick test_retry_backoff;
        ] );
    ]
