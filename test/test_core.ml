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
  let locs = Scalana.Pipeline.root_cause_locs pipe in
  let labels = Scalana.Pipeline.root_cause_labels pipe in
  check_int "locs match labels" (List.length locs) (List.length labels);
  List.iter
    (fun loc ->
      check_string "locs point into the program" "zeusmp.mmp" (Loc.file loc))
    locs;
  (* what the PPGs own beyond their profiles is accounted: every scale
     lists at least one touched vertex *)
  check_bool "ppg storage accounted" true
    (Scalana.Pipeline.ppg_storage_bytes pipe > 0)

let test_param_override () =
  (* runtime parameter overrides shrink the run proportionally *)
  let entry = Scalana_apps.Registry.find "ep" in
  let prog = entry.make () in
  let t_full = Scalana.Experiment.bare_elapsed prog ~nprocs:4 in
  let t_small =
    Scalana.Experiment.bare_elapsed ~params:[ ("m", 9_000_000_000) ] prog
      ~nprocs:4
  in
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
  let pipe = Scalana.Pipeline.detect session.static session.runs in
  check_bool "report renders" true (String.length pipe.report > 0)

(* The stored static artifact of every Table II program, byte for byte:
   the PSGs, the attribution index, the def-use summary and the
   communication-cost analysis the session carries. *)
let expected_static_artifact_digests =
  [
    ("bt", "1c39538fbb1a73253b2163afe827e0ab");
    ("cg", "c16f5fd118b405247e28eab93924dfcd");
    ("ep", "37093407bf7856d99e5e89a4420f7aeb");
    ("ft", "8cd17979320a3c44e699bcea580d34f8");
    ("mg", "78819acfe8454ec21cb5d58f244177b5");
    ("sp", "4562388e3f012648dbbc0d80b9bc5838");
    ("lu", "c4026e7f0249f3690b00fd8c9587135b");
    ("is", "34371e0cf69482b5dd9eafb6d15fd04a");
    ("sst", "f9cfb4e5b58c53bc3d4a7b0b799d8a96");
    ("nekbone", "d61a11259247d4d1bbb962f29cef5869");
    ("zeusmp", "82605c5db094a3bc973940f9b0f00578");
  ]

let test_static_artifact_digests () =
  check_int "one digest per program" (List.length Scalana_apps.Registry.names)
    (List.length expected_static_artifact_digests);
  List.iter
    (fun name ->
      let dir = Filename.temp_file "scalana" "" in
      Sys.remove dir;
      Scalana.Artifact.save_static dir
        (Scalana.Static.analyze ((Scalana_apps.Registry.find name).make ()));
      let path = Scalana.Artifact.static_path dir in
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      Sys.rmdir dir;
      check_string (name ^ " static artifact")
        (List.assoc name expected_static_artifact_digests)
        (Digest.to_hex (Digest.string bytes)))
    Scalana_apps.Registry.names

let test_artifact_bad_magic () =
  let f = Filename.temp_file "scalana" ".static" in
  let oc = open_out f in
  output_string oc "NOTSCALANA";
  close_out oc;
  match (Scalana.Artifact.load_value f : Scalana.Static.t) with
  | _ -> Alcotest.fail "expected failure"
  | exception Scalana.Artifact.Error (Scalana.Artifact.Bad_magic _) -> ()

(* --- salvage properties of the artifact record stream --- *)

(* A small fixture: [k] appended records with distinct payloads, plus the
   byte offset of every record boundary (header included). *)
let stream_fixture k =
  let path = Filename.temp_file "scalana" ".prof" in
  let values = List.init k (fun i -> (i, String.make (20 + (i * 7)) 'x')) in
  List.iter (fun v -> Scalana.Artifact.append_value path v) values;
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

let test_artifact_append_last_wins () =
  let dir = Filename.temp_file "scalana" "" in
  Sys.remove dir;
  let entry = Scalana_apps.Registry.find "cg" in
  let static = Scalana.Static.analyze (entry.make ()) in
  Scalana.Artifact.save_static dir static;
  let r1 = Scalana.Prof.run ~cost:entry.cost static ~nprocs:4 () in
  Scalana.Artifact.save_run dir r1;
  let r2 = Scalana.Prof.run ~cost:entry.cost static ~nprocs:4 () in
  Scalana.Artifact.save_run dir r2;
  (* two records in one file; the newest intact one wins *)
  let s : Scalana.Prof.run Scalana.Artifact.salvage =
    Scalana.Artifact.read_stream (Scalana.Artifact.run_path dir 4)
  in
  check_int "both records intact" 2 (List.length s.values);
  let session = Scalana.Artifact.load_session dir in
  check_int "one run" 1 (List.length session.runs);
  check_bool "no issues" true (session.issues = []);
  (* truncating into the second record falls back to the first *)
  let path = Scalana.Artifact.run_path dir 4 in
  let ic = open_in_bin path in
  let full = in_channel_length ic in
  close_in ic;
  Scalana_runtime.Faults.truncate_file path ~at_byte:(full - 10);
  let runs, issues = Scalana.Artifact.load_runs_salvage dir in
  check_int "salvaged to first record" 1 (List.length runs);
  check_int "damage reported" 1 (List.length issues)

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

(* Files an older build wrote (version byte 2, CRCs intact) are refused
   by version before any payload is decoded into the current shape. *)
let test_artifact_older_version () =
  let dir = cg_session () in
  let set_version path =
    Scalana_runtime.Faults.corrupt_byte path
      ~at_byte:(String.length Scalana.Artifact.magic)
      ~xor:(Scalana.Artifact.format_version lxor 2) ()
  in
  let static = Scalana.Artifact.static_path dir
  and run = Scalana.Artifact.run_path dir 4 in
  set_version static;
  set_version run;
  let is_v2 = function
    | Some (Scalana.Artifact.Bad_version { version = 2; _ }) -> true
    | _ -> false
  in
  let r : Scalana.Prof.run Scalana.Artifact.salvage =
    Scalana.Artifact.read_stream run
  in
  check_bool "run file refused" true (r.values = [] && is_v2 r.damage);
  (match Scalana.Artifact.load_static dir with
  | _ -> Alcotest.fail "static file accepted"
  | exception Scalana.Artifact.Error e ->
      check_bool "static file refused" true (is_v2 (Some e)));
  let runs, issues = Scalana.Artifact.load_runs_salvage dir in
  Alcotest.(check (list int)) "other scales kept" [ 8; 16 ] (List.map fst runs);
  check_bool "reported as Bad_version" true
    (List.exists
       (fun (i : Scalana.Artifact.issue) -> is_v2 (Some i.error))
       issues)

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
  check_bool "summary lines" true (Scalana.Viewer.summary pipe <> [])

let test_mean_overhead_ordering () =
  let entry = Scalana_apps.Registry.find "mg" in
  let means =
    Scalana.Experiment.mean_overhead ~cost:entry.cost (entry.make ())
      ~scales:[ 4; 8 ]
  in
  let get k = List.assoc k means in
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
      (* at least one record, so the stream always has its header *)
      let values = (0, "seed") :: values in
      let write vs =
        let path = Filename.temp_file "scalana_prop" ".art" in
        List.iter (fun v -> Scalana.Artifact.append_value path v) vs;
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

(* --- elastic sessions through the pipeline --- *)

let contains needle hay =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

let elastic_config = { Scalana.Config.default with elastic = true }

let test_pipeline_elastic_shrink_degraded () =
  let entry = Scalana_apps.Registry.find "cg-shrink" in
  let plan = Option.get entry.elastic_plan in
  let pipe =
    Scalana.Pipeline.run ~config:elastic_config ~cost:entry.cost
      ~scales:[ 4; 8 ] ~elastic:plan (entry.make ())
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
  let plan = Option.get entry.elastic_plan in
  let pipe =
    Scalana.Pipeline.run ~config:elastic_config ~cost:entry.cost
      ~scales:[ 4; 8 ] ~elastic:plan (entry.make ())
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
  (* config.elastic on a session with no membership changes must leave
     the report byte-identical *)
  let entry = Scalana_apps.Registry.find "cg" in
  let report config =
    (Scalana.Pipeline.run ~config ~cost:entry.cost ~scales:[ 4; 8 ]
       (entry.make ()))
      .Scalana.Pipeline.report
  in
  check_bool "byte-identical" true
    (String.equal (report Scalana.Config.default) (report elastic_config))

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
        (Scalana.Pipeline.run ~config:elastic_config ~scales:[ 4 ]
           ~elastic:plan (elastic_ring ()))
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
