(* Multicore-analysis and engine-throughput benches, both written to
   BENCH_pipeline.json so the perf trajectory is tracked across PRs.

   [pipeline_parallel]: end-to-end pipeline wall time with the
   sequential path (1 domain) vs the domain-pool path (N domains) on the
   zeusmp case.  A third, observability-enabled run breaks the wall time
   down per pipeline phase (docs/observability.md) and the per-phase
   totals ride along in the same JSON.  The detection output is asserted
   byte-identical between the two runs before any number is reported — a
   speedup that changes the answer would be worthless.

   [engine_throughput]: raw simulator events/second on the cg-weak
   extreme-scale workload (docs/performance.md), the metric the
   struct-of-arrays engine rework targets.  Each scale point carries the
   pre-rework engine's measurement as its baseline, and the run's GC
   work: collections, promoted words and allocated words. *)

let domains = 4

(* cg-weak sweep points; CI's perf-smoke budget covers the full list
   (the np=4096 point simulates ~600k events in well under a minute) *)
let engine_scales = [ 256; 1024; 4096 ]

(* events/second of the engine before the struct-of-arrays rework
   (list-based matching queues, per-proc records), same workload, same
   machine class — the floor the rework is measured against *)
let engine_baseline = function
  | 256 -> 1_165_046.0
  | 1024 -> 515_529.0
  | 4096 -> 304_060.0
  | 16384 -> 106_361.0
  | _ -> nan

(* cg-weak scale points for the PPG memory sweep; np=65536 is the scale
   the profile and PPG footprints are judged at *)
let ppg_scales = [ 4096; 16384; 65536 ]

(* live words retained and build seconds of the boxed, Hashtbl-backed
   pre-rework Ppg.build on the same cg-weak profiles — the floor the
   columnar store is measured against (same machine class) *)
let ppg_baseline = function
  | 4096 -> (580_631, 0.020)
  | 16384 -> (2_632_895, 0.143)
  | 65536 -> (11_709_074, 1.089)
  | _ -> (0, nan)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_with ~entry ~scales d =
  let config = { Scalana.Config.default with analysis_domains = d } in
  timed (fun () ->
      Scalana.Pipeline.run ~config
        ~cost:(entry : Scalana_apps.Registry.entry).cost ~scales
        (entry.make ()))

(* Results land in these refs so a lone `--only` run still writes a
   complete JSON for whatever it measured. *)
type speedup_data = {
  scales : int list;
  seq_s : float;
  par_s : float;
  phases : (string * int * float) list;
}

(* What one run cost the GC: [Gc.quick_stat] after minus before. *)
type gc_work = {
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
  allocated_words : float;  (* minor + major - promoted *)
}

type engine_row = { np : int; events : int; wall_s : float; gc : gc_work }

let gc_work_of (a : Gc.stat) (b : Gc.stat) =
  let promoted = b.promoted_words -. a.promoted_words in
  {
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
    promoted_words = promoted;
    allocated_words =
      b.minor_words -. a.minor_words +. (b.major_words -. a.major_words)
      -. promoted;
  }

type ppg_row = {
  mnp : int;  (* scale point *)
  profile_s : float;  (* Prof.run wall at this scale *)
  build_s : float;  (* Ppg.build wall *)
  live_words : int;  (* GC live words the PPG adds to its profile *)
  ppg_bytes : int;  (* Ppg.storage_bytes: what the PPG owns *)
  profile_live_words : int;  (* the profile, which the PPG reads in place *)
  profdata_bytes : int;  (* Profdata.storage_bytes, the packed size model *)
  artifact_bytes : int;  (* the profile's stored run file *)
  save_s : float;  (* Artifact.save_run wall *)
  load_s : float;  (* Artifact.load_runs_salvage wall over that file *)
}

(* end-to-end profile -> detect pipeline at the largest scale *)
type e2e_row = {
  e_np : int;
  e_scales : int list;
  e_wall_s : float;
  e_ppg_bytes : int;  (* Ppg.storage_bytes across all scales *)
}

(* ledger append + load + self-diff walls over an n-entry history *)
type history_data = {
  hist_entries : int;
  append_s : float;  (* total wall of the n appends *)
  load_s : float;  (* one load of the full ledger *)
  hdiff_s : float;  (* one compare_summaries over the cg summary *)
}

let speedup_results : speedup_data option ref = ref None
let engine_results : engine_row list ref = ref []
let ppg_results : ppg_row list ref = ref []
let e2e_result : e2e_row option ref = ref None
let history_results : history_data option ref = ref None

let bench_json = "BENCH_pipeline.json"

(* The speedup section's members sit at the top level of the file; every
   other section nests under one key. *)
let speedup_keys =
  [
    "bench"; "program"; "scales"; "analysis_domains";
    "recommended_domain_count"; "sequential_seconds"; "parallel_seconds";
    "speedup"; "phases";
  ]

let section_keys = [ speedup_keys; [ "engine" ]; [ "ppg" ]; [ "history" ] ]

(* Top-level members of the JSON already on disk; [] when it is absent
   or unreadable. *)
let committed_members () =
  match In_channel.with_open_bin bench_json In_channel.input_all with
  | exception Sys_error _ -> []
  | s -> (
      match Scalana_obs.Obs.Json.of_string s with
      | Ok (Scalana_obs.Obs.Json.Obj members) -> members
      | Ok _ | Error _ -> [])

(* Sections measured in this invocation replace their committed text;
   every other committed member is kept, so a lone `--only` run never
   erases the sections it did not measure. *)
let write_bench_json () =
  let committed = committed_members () in
  let sections = ref [] in
  let add keys fmt =
    Printf.ksprintf (fun s -> sections := (keys, s) :: !sections) fmt
  in
  (match !speedup_results with
  | None -> ()
  | Some d ->
      let phase_rows =
        String.concat ",\n"
          (List.map
             (fun (name, calls, total) ->
               Printf.sprintf
                 "    %S: { \"calls\": %d, \"total_seconds\": %.6f }" name
                 calls total)
             d.phases)
      in
      add speedup_keys
        "  \"bench\": \"pipeline_parallel_speedup\",\n\
        \  \"program\": \"zeusmp\",\n\
        \  \"scales\": [%s],\n\
        \  \"analysis_domains\": %d,\n\
        \  \"recommended_domain_count\": %d,\n\
        \  \"sequential_seconds\": %.6f,\n\
        \  \"parallel_seconds\": %.6f,\n\
        \  \"speedup\": %.3f,\n\
        \  \"phases\": {\n%s\n  }"
        (String.concat ", " (List.map string_of_int d.scales))
        domains
        (Domain.recommended_domain_count ())
        d.seq_s d.par_s
        (if d.par_s > 0.0 then d.seq_s /. d.par_s else 0.0)
        phase_rows);
  (match !engine_results with
  | [] -> ()
  | rows ->
      let row r =
        let evs = float_of_int r.events /. r.wall_s in
        Printf.sprintf
          "    { \"np\": %d, \"events\": %d, \"wall_seconds\": %.3f, \
           \"events_per_second\": %.0f, \
           \"baseline_events_per_second\": %.0f, \"speedup\": %.2f, \
           \"minor_collections\": %d, \"major_collections\": %d, \
           \"promoted_words\": %.0f, \"allocated_words\": %.0f }"
          r.np r.events r.wall_s evs (engine_baseline r.np)
          (evs /. engine_baseline r.np)
          r.gc.minor_collections r.gc.major_collections r.gc.promoted_words
          r.gc.allocated_words
      in
      add [ "engine" ]
        "  \"engine\": {\n\
        \  \"bench\": \"engine_events_per_second\",\n\
        \  \"program\": \"cg-weak\",\n\
        \  \"sweep\": [\n%s\n  ]\n  }"
        (String.concat ",\n" (List.map row rows)));
  (match !ppg_results with
  | [] -> ()
  | rows ->
      let row r =
        let base_words, base_s = ppg_baseline r.mnp in
        Printf.sprintf
          "    { \"np\": %d, \"profile_seconds\": %.3f, \
           \"build_seconds\": %.4f, \"live_words\": %d, \
           \"ppg_bytes\": %d, \"profile_live_words\": %d, \
           \"profdata_bytes\": %d, \"artifact_bytes\": %d, \
           \"save_seconds\": %.4f, \"load_seconds\": %.4f, \
           \"baseline_live_words\": %d, \"baseline_build_seconds\": %.4f }"
          r.mnp r.profile_s r.build_s r.live_words r.ppg_bytes
          r.profile_live_words r.profdata_bytes r.artifact_bytes r.save_s
          r.load_s base_words base_s
      in
      let e2e =
        match !e2e_result with
        | None -> ""
        | Some e ->
            Printf.sprintf
              ",\n\
              \  \"analysis_np%d\": { \"scales\": [%s], \
               \"wall_seconds\": %.3f, \"ppg_bytes\": %d }"
              e.e_np
              (String.concat ", " (List.map string_of_int e.e_scales))
              e.e_wall_s e.e_ppg_bytes
      in
      add [ "ppg" ]
        "  \"ppg\": {\n\
        \  \"bench\": \"ppg_memory\",\n\
        \  \"program\": \"cg-weak\",\n\
        \  \"sweep\": [\n%s\n  ]%s\n  }"
        (String.concat ",\n" (List.map row rows))
        e2e);
  (match !history_results with
  | None -> ()
  | Some h ->
      add [ "history" ]
        "  \"history\": {\n\
        \  \"bench\": \"history_ledger\",\n\
        \  \"program\": \"cg\",\n\
        \  \"entries\": %d,\n\
        \  \"append_seconds\": %.6f,\n\
        \  \"append_seconds_per_entry\": %.9f,\n\
        \  \"load_seconds\": %.6f,\n\
        \  \"diff_seconds\": %.6f\n  }"
        h.hist_entries h.append_s
        (h.append_s /. float_of_int h.hist_entries)
        h.load_s h.hdiff_s);
  let kept keys =
    let module J = Scalana_obs.Obs.Json in
    List.filter_map
      (fun k ->
        Option.map
          (fun v ->
            Printf.sprintf "  %s: %s" (J.to_string (J.Str k)) (J.to_string v))
          (List.assoc_opt k committed))
      keys
  in
  let unknown =
    List.filter
      (fun k -> not (List.exists (List.mem k) section_keys))
      (List.map fst committed)
  in
  let parts =
    List.concat_map
      (fun keys ->
        match List.assoc_opt keys !sections with
        | Some measured -> [ measured ]
        | None -> kept keys)
      (section_keys @ [ unknown ])
  in
  Out_channel.with_open_bin bench_json (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n" (String.concat ",\n" parts))

let pipeline_parallel () =
  Util.section
    (Printf.sprintf "Pipeline speedup: 1 domain vs %d (zeusmp, end-to-end)"
       domains);
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let scales = Util.scales_for entry ~max_np:32 in
  let seq, seq_s = run_with ~entry ~scales 1 in
  let par, par_s = run_with ~entry ~scales domains in
  if not (String.equal seq.Scalana.Pipeline.report par.Scalana.Pipeline.report)
  then failwith "parallel report differs from sequential report";
  Printf.printf "  sequential (1 domain):  %8.3fs\n" seq_s;
  Printf.printf "  parallel   (%d domains): %8.3fs\n" domains par_s;
  Printf.printf "  speedup:                %8.2fx  (on %d hardware core%s)\n"
    (if par_s > 0.0 then seq_s /. par_s else 0.0)
    (Domain.recommended_domain_count ())
    (if Domain.recommended_domain_count () = 1 then "" else "s");
  Util.note "reports byte-identical across both runs";
  (* a third run with the span collector on attributes the parallel wall
     time to pipeline phases; the instrumented run is never the one the
     speedup numbers come from *)
  Scalana_obs.Obs.enable ();
  let _, _ = run_with ~entry ~scales domains in
  Scalana_obs.Obs.disable ();
  let phases = Scalana_obs.Obs.phase_summary () in
  List.iteri
    (fun i (name, calls, total) ->
      if i < 6 then
        Printf.printf "  phase %-26s %4d calls %8.3fs\n" name calls total)
    phases;
  speedup_results := Some { scales; seq_s; par_s; phases };
  write_bench_json ();
  Printf.printf "  wrote BENCH_pipeline.json (%d phases)\n%!"
    (List.length phases)

let engine_throughput () =
  Util.section "Engine throughput: cg-weak events/second (raw Exec.run)";
  let entry = Scalana_apps.Registry.find "cg-weak" in
  let rows =
    List.map
      (fun np ->
        let cfg = Scalana_runtime.Exec.config ~nprocs:np ~cost:entry.cost () in
        let prog = entry.make () in
        (* each point starts from a compacted heap, so no earlier
           point's garbage is collected on its account *)
        Gc.compact ();
        let before = Gc.quick_stat () in
        let r, wall_s = timed (fun () -> Scalana_runtime.Exec.run ~cfg prog) in
        let gc = gc_work_of before (Gc.quick_stat ()) in
        let row = { np; events = r.Scalana_runtime.Exec.events; wall_s; gc } in
        Printf.printf
          "  np=%-6d %9d events %8.3fs  %10.0f ev/s  (baseline %8.0f, %.1fx)  \
           gc: %d minor, %d major, %.0f promoted, %.0f allocated words\n%!"
          np row.events wall_s
          (float_of_int row.events /. wall_s)
          (engine_baseline np)
          (float_of_int row.events /. wall_s /. engine_baseline np)
          gc.minor_collections gc.major_collections gc.promoted_words
          gc.allocated_words;
        row)
      engine_scales
  in
  engine_results := rows;
  write_bench_json ();
  Printf.printf "  wrote BENCH_pipeline.json (engine sweep, %d scales)\n%!"
    (List.length rows)

(* Live words the process retains across [f] — both compacts are
   essential: the first settles the pre-state, the second drops every
   temporary [f] allocated, so the delta is what [f]'s result pins. *)
let retained f =
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let r, wall = timed f in
  Gc.compact ();
  let after = (Gc.stat ()).Gc.live_words in
  (r, wall, after - before)

let ppg_memory () =
  Util.section "PPG memory: cg-weak profile and PPG footprint per scale";
  let entry = Scalana_apps.Registry.find "cg-weak" in
  let rows =
    List.map
      (fun np ->
        let prog = entry.Scalana_apps.Registry.make () in
        let static = Scalana.Static.analyze prog in
        let r, profile_s, profile_live_words =
          retained (fun () ->
              Scalana.Prof.run ~cost:entry.cost static ~nprocs:np ())
        in
        let data = r.Scalana.Prof.data in
        let ppg, build_s, live_words =
          retained (fun () ->
              Scalana_ppg.Ppg.build ~psg:(Scalana.Static.psg static) data)
        in
        let ppg_bytes = Scalana_ppg.Ppg.storage_bytes ppg in
        let base_words, base_s = ppg_baseline np in
        (* the profile as a session stores and reopens it *)
        let dir = Filename.temp_file "scalana-ppg-memory" "" in
        Sys.remove dir;
        let (), save_s = timed (fun () -> Scalana.Artifact.save_run dir r) in
        let path = Scalana.Artifact.run_path dir np in
        let artifact_bytes = (Unix.stat path).Unix.st_size in
        let _, load_s =
          timed (fun () -> Scalana.Artifact.load_runs_salvage dir)
        in
        Sys.remove path;
        Sys.rmdir dir;
        Printf.printf
          "  np=%-6d profile %7.3fs  build %7.4fs  %9d live words  %8.1f MB \
           PPG-owned  (baseline %9d words, %.4fs)\n\
          \           artifact %8.1f MB  save %7.4fs  load %7.4fs\n\
           %!"
          np profile_s build_s live_words
          (float_of_int ppg_bytes /. 1e6)
          base_words base_s
          (float_of_int artifact_bytes /. 1e6)
          save_s load_s;
        ignore (Sys.opaque_identity ppg);
        {
          mnp = np;
          profile_s;
          build_s;
          live_words;
          ppg_bytes;
          profile_live_words;
          profdata_bytes = Scalana_profile.Profdata.storage_bytes data;
          artifact_bytes;
          save_s;
          load_s;
        })
      ppg_scales
  in
  ppg_results := rows;
  (* end-to-end: the full profile -> detect pipeline with np=65536 as the
     largest scale point, the run the ROADMAP item exists for *)
  let e_np = List.fold_left max 0 ppg_scales in
  let pipe, e_wall_s =
    timed (fun () ->
        Scalana.Pipeline.run ~cost:entry.cost ~scales:ppg_scales
          (entry.Scalana_apps.Registry.make ()))
  in
  let e_ppg_bytes = Scalana.Pipeline.ppg_storage_bytes pipe in
  Printf.printf
    "  end-to-end analysis (scales %s): %8.3fs  %8.1f MB PPG-owned\n%!"
    (String.concat "," (List.map string_of_int ppg_scales))
    e_wall_s
    (float_of_int e_ppg_bytes /. 1e6);
  e2e_result := Some { e_np; e_scales = ppg_scales; e_wall_s; e_ppg_bytes };
  write_bench_json ();
  Printf.printf "  wrote BENCH_pipeline.json (ppg sweep, %d scales)\n%!"
    (List.length rows)

let history_ledger () =
  Util.section "History ledger: append/load/diff walls (cg, 50 entries)";
  let entry = Scalana_apps.Registry.find "cg" in
  let pipe, analyze_s =
    timed (fun () ->
        Scalana.Pipeline.run ~cost:entry.cost ~scales:[ 4; 8; 16 ]
          (entry.make ()))
  in
  Printf.printf "  pipeline (analysis input):        %8.3fs\n%!" analyze_s;
  let n = 50 in
  let path = Filename.temp_file "scalana_bench_history" ".jsonl" in
  Sys.remove path;
  let row =
    Scalana.Pipeline.history_entry ~commit:"bench000" ~label:"bench" pipe
  in
  let (), append_s =
    timed (fun () ->
        for i = 0 to n - 1 do
          (* distinct timestamps, as a real ledger would accumulate *)
          Scalana_obs.History.append ~path
            { row with Scalana_obs.History.h_time = float_of_int i }
        done)
  in
  let loaded, load_s = timed (fun () -> Scalana_obs.History.load ~path) in
  assert (List.length loaded.Scalana_obs.History.entries = n);
  assert (loaded.Scalana_obs.History.dropped = 0);
  let summary = Scalana.Pipeline.diff_summary ~label:"bench" pipe in
  let diff, hdiff_s =
    timed (fun () ->
        Scalana_detect.Diff.compare_summaries ~base:summary ~cand:summary ())
  in
  assert (not (Scalana_detect.Diff.has_regressions diff));
  Sys.remove path;
  Printf.printf
    "  append x%-3d %8.3fs total (%7.1f us/entry)\n\
    \  load        %8.3fs (%d rows, 0 dropped)\n\
    \  self-diff   %8.3fs (%d vertices aligned)\n\
     %!"
    n append_s
    (append_s /. float_of_int n *. 1e6)
    load_s n hdiff_s diff.Scalana_detect.Diff.n_unchanged;
  history_results := Some { hist_entries = n; append_s; load_s; hdiff_s };
  write_bench_json ();
  Printf.printf "  wrote BENCH_pipeline.json (history ledger)\n%!"

let all : (string * (unit -> unit)) list =
  [
    ("pipeline_parallel_speedup", pipeline_parallel);
    ("engine_throughput", engine_throughput);
    ("ppg_memory", ppg_memory);
    ("history", history_ledger);
  ]
