(* End-to-end benchmark of the ScalAna pipeline.

     main.exe --workload W [--seed S] [--seconds N] [--trace 0|1]
       one workload in this process; the last stdout line is the result
       {"correct", "attempted", "failed", "metrics"}, the line before it
       the run's stamp, pass count, timing quartiles and checks
     main.exe [--seed S] [--seconds N] [--traced]
       all five workloads, each in its own child process, one at a time
     main.exe --smoke
       all five at toy scales (<= 16 ranks, 2 passes), traced, checking
       the emitted metric names and units against BENCHMARK.json

   Every workload runs on one domain.  With --trace 1 (--traced),
   untraced and traced passes alternate, and the per-layer split is
   reported as shares of the untraced time. *)

module J = Scalana_obs.Obs.Json
module W = Workloads

(* Python's statistics.quantiles(xs, n=4) ("exclusive" method), so the
   quartiles printed here match the ones computed over repeated runs. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, W.median xs, q 3)

let timing_json xs =
  let q1, med, q3 = quartiles xs in
  J.Obj
    [
      ("n", J.Num (float_of_int (List.length xs)));
      ("min", J.Num (List.fold_left Float.min infinity xs));
      ("q1", J.Num q1);
      ("median", J.Num med);
      ("q3", J.Num q3);
    ]

(* --- measurement --- *)

type sample = {
  unit : int;
  pass : int;
  wall : float;
  trace : Trace.t option;  (** traced units: their spans, probes and counts *)
}

type measured = { samples : sample list; passes : int; attempted : int; failed : int }

(* Run passes until [seconds] have gone by and at least [min_passes]
   ran.  With [traced], untraced and traced passes alternate, so both
   sample the same spells of host load, and every unit gets the traced
   run's untimed probes, so both kinds start from the same state.  Each
   unit's fingerprint must equal its first run's. *)
let measure (inst : W.instance) ~traced ~seconds ~min_passes =
  let reference = Array.make (List.length inst.W.units) None in
  let t_start = Unix.gettimeofday () in
  let m = ref { samples = []; passes = 0; attempted = 0; failed = 0 } in
  while !m.passes < min_passes || Unix.gettimeofday () -. t_start < seconds do
    let pass = !m.passes in
    List.iteri
      (fun i name ->
        Gc.compact ();
        let trace = if traced && pass mod 2 = 1 then Some (Trace.create ()) else None in
        let ok =
          match W.timed (fun () -> inst.W.run trace i) with
          | exception e ->
              Printf.eprintf "  %s raised %s\n%!" name (Printexc.to_string e);
              false
          | print, wall ->
              if traced then begin
                Gc.compact ();
                inst.W.after (Some (Option.value trace ~default:(Trace.create ()))) i
              end
              else inst.W.after None i;
              m := { !m with samples = { unit = i; pass; wall; trace } :: !m.samples };
              (match reference.(i) with
              | None ->
                  reference.(i) <- Some print;
                  true
              | Some r -> r = print)
              || (Printf.eprintf "  %s: output differs from its first run\n%!" name;
                  false)
        in
        m := { !m with attempted = !m.attempted + 1; failed = (!m.failed + if ok then 0 else 1) })
      inst.W.units;
    m := { !m with passes = pass + 1 }
  done;
  !m

(* Samples grouped by unit, newest first within a unit. *)
let per_unit samples =
  let units = List.sort_uniq compare (List.map (fun s -> s.unit) samples) in
  List.map (fun u -> List.filter (fun s -> s.unit = u) samples) units

let sum_per_unit stat samples f =
  List.fold_left (fun acc ss -> acc +. stat (List.map f ss)) 0.0 (per_unit samples)

(* Summed over units of the unit's fastest value.  Slow spells on a
   shared host only ever add time, and they often outlast a unit, so
   the fastest run is the steadiest estimate of a unit's cost: wall_s,
   and every per-layer time, is measured this way. *)
let sum_of_minima = sum_per_unit (List.fold_left Float.min infinity)

(* Summed over units of the value in the unit's latest traced run. *)
let sum_of_latest samples f =
  List.fold_left
    (fun acc ss -> match ss with s :: _ -> acc +. f s | [] -> acc)
    0.0 (per_unit samples)

let in_trace f s = match s.trace with Some tr -> f tr | None -> 0.0
let lookup tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)
let self_of cat name = in_trace (fun tr -> lookup (Trace.self_by_name tr ~cat) name)

(* --- metrics: (name, unit, value), in BENCHMARK.json order --- *)

let e2e_metrics ~wall ~setup ~heap_words ~(fin : W.finish) =
  [
    ("wall_s", "s", wall);
    ("setup_s", "s", setup);
    ("peak_heap_mb", "MB", float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6);
    ("overhead_pct", "%", fin.W.overhead_pct);
    ("artifact_mb", "MB", float_of_int fin.W.artifact_bytes /. 1e6);
  ]

(* [all] holds the untraced and the traced units of a traced run. *)
let layer_metrics all =
  let samples = List.filter (fun s -> Option.is_some s.trace) all in
  let wall = sum_of_minima (List.filter (fun s -> Option.is_none s.trace) all) (fun s -> s.wall) in
  let share f = if wall > 0.0 then 100.0 *. sum_of_minima samples f /. wall else 0.0 in
  let self = self_of "layer" and probe = self_of "probe" in
  let count name = sum_of_latest samples (in_trace (fun tr -> Trace.counted tr name)) in
  let alloc cat name =
    sum_of_latest samples (in_trace (fun tr -> lookup (Trace.alloc_by_name tr ~cat) name /. 1e6))
  in
  let layer_sum =
    in_trace (fun tr -> Hashtbl.fold (fun _ v acc -> acc +. v) (Trace.self_by_name tr ~cat:"layer") 0.0)
  in
  let exec_s = sum_of_minima samples (probe "exec.run") in
  let blocked = count "waitstate.blocked_s" in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  [
    ("static.analyze_pct", "%", share (self "static.analyze"));
    ("psg.intra_pct", "%", share (probe "psg.intra"));
    ("psg.inter_pct", "%", share (probe "psg.inter"));
    ("psg.contract_pct", "%", share (probe "psg.contract"));
    ("cfg.commcost_pct", "%", share (probe "cfg.commcost"));
    ("lint.run_pct", "%", share (self "lint.run"));
    ("static.alloc_mb", "MB", alloc "layer" "static.analyze");
    ("psg.vertices", "count", count "psg.vertices");
    ("lint.findings", "count", count "lint.findings");
    ("exec.run_pct", "%", share (probe "exec.run"));
    ("exec.alloc_mb", "MB", alloc "probe" "exec.run");
    ("exec.events", "count", count "exec.events");
    ("exec.messages", "count", count "exec.messages");
    ("exec.events_per_s", "1/s", ratio (count "exec.events") exec_s);
    ("prof.run_pct", "%", share (self "prof.run"));
    ("prof.hook_pct", "%", share (fun s -> self "prof.run" s -. probe "exec.run" s));
    ("prof.alloc_mb", "MB", alloc "layer" "prof.run");
    ("profile.bytes", "B", count "profile.bytes");
    ("profile.live_mw", "Mword", count "profile.live_words" /. 1e6);
    ("timeline.capture_pct", "%", share (self "timeline.capture"));
    ("timeline.dropped", "count", count "timeline.dropped");
    ("waitstate.analyze_pct", "%", share (self "waitstate.analyze"));
    ("waitstate.attributed", "ratio", ratio (count "waitstate.attributed_s") blocked);
    ("artifact.save_pct", "%", share (self "artifact.save"));
    ("artifact.load_pct", "%", share (self "artifact.load"));
    ("artifact.load_alloc_mb", "MB", alloc "layer" "artifact.load");
    ("ppg.build_pct", "%", share (self "ppg.build"));
    ("ppg.bytes", "B", count "ppg.bytes");
    ("ppg.live_mw", "Mword", count "ppg.live_words" /. 1e6);
    ("ppg.alloc_mb", "MB", alloc "layer" "ppg.build");
    ("nonscalable.detect_pct", "%", share (probe "nonscalable.detect"));
    ("abnormal.detect_pct", "%", share (probe "abnormal.detect"));
    ("rootcause.analyze_pct", "%", share (self "rootcause.analyze"));
    ( "backtrack.self_pct",
      "%",
      share (fun s ->
          self "rootcause.analyze" s -. probe "nonscalable.detect" s -. probe "abnormal.detect" s)
    );
    ("nonscalable.findings", "count", count "nonscalable.findings");
    ("abnormal.findings", "count", count "abnormal.findings");
    ("rootcause.paths", "count", count "rootcause.paths");
    ("rootcause.causes", "count", count "rootcause.causes");
    ("report.render_pct", "%", share (self "report.render"));
    ("report.bytes", "B", count "report.bytes");
    ("htmlreport.render_pct", "%", share (self "htmlreport.render"));
    ("diff.summary_pct", "%", share (self "diff.summary"));
    ("diff.compare_pct", "%", share (self "diff.compare"));
    ("history.append_pct", "%", share (self "history.append"));
    (* span time over the same units' wall: measured in one interval, so
       host noise cancels *)
    ( "trace.coverage",
      "ratio",
      let total f = List.fold_left (fun acc s -> acc +. f s) 0.0 samples in
      ratio (total layer_sum) (total (fun s -> s.wall)) );
    ("trace.overhead_pct", "%", 100.0 *. (ratio (sum_of_minima samples (fun s -> s.wall)) wall -. 1.0));
  ]

let catalogue ms = List.map (fun (n, u, _) -> (n, u)) ms

let no_finish = { W.checks = []; overhead_pct = 0.0; artifact_bytes = 0 }
let end_to_end = catalogue (e2e_metrics ~wall:0.0 ~setup:0.0 ~heap_words:0 ~fin:no_finish)
let per_layer = catalogue (layer_metrics [])

(* Self seconds per span, summed over units of the unit's fastest. *)
let layer_seconds samples =
  let names =
    List.sort_uniq compare
      (List.concat_map
         (fun s ->
           match s.trace with
           | Some tr -> List.map (fun (sp : Trace.span) -> (sp.Trace.cat, sp.Trace.name)) tr.Trace.spans
           | None -> [])
         samples)
  in
  List.map
    (fun (cat, name) -> (cat ^ ":" ^ name, sum_of_minima samples (self_of cat name)))
    names

let write_chrome_trace path samples =
  let spans =
    List.concat_map (fun s -> Option.fold ~none:[] ~some:(fun tr -> tr.Trace.spans) s.trace) samples
  in
  let origin = List.fold_left (fun acc (sp : Trace.span) -> Float.min acc sp.Trace.t0) infinity spans in
  let events =
    List.concat_map
      (fun s ->
        Option.fold ~none:[] ~some:(fun tr -> Trace.chrome_events tr ~origin ~tid:s.pass) s.trace)
      (List.rev samples)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string (J.Obj [ ("traceEvents", J.Arr events) ])))

(* --- child processes: at most one at a time --- *)

(* Run this executable with [args] and wait for it; its stdout is
   returned, its stderr shared. *)
let run_self args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  (snd (Unix.waitpid [] pid) = Unix.WEXITED 0, out)

let child_args (ctx : W.ctx) =
  [ "--seed"; string_of_int ctx.W.config.Scalana.Config.seed; "--root"; ctx.W.root ]
  @ if ctx.W.smoke then [ "--smoke" ] else []

let prepare_in_child ctx (w : W.t) =
  if not (fst (run_self ("--prepare" :: w.W.name :: child_args ctx))) then
    failwith ("set-up child failed for " ^ w.W.name)

(* Peak heap of a fresh process that loads the inputs and runs unit
   [i] once.  Unlike the measuring process's, it depends neither on the
   order the units ran in nor on the checks run between them. *)
let heap_probe_in_child ctx (w : W.t) i =
  match run_self ("--heap-probe" :: w.W.name :: "--unit" :: string_of_int i :: child_args ctx) with
  | true, out -> int_of_string_opt (String.trim out)
  | false, _ -> None

(* --- one workload, in this process --- *)

let scratch_root root = Filename.concat root "_e2ebench"

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * string * float) list;
  layers : (string * string * float) list;  (** traced runs only *)
  detail : J.t;
}

let stamp (ctx : W.ctx) =
  let nproc =
    match Unix.open_process_args_in "nproc" [| "nproc" |] with
    | exception Unix.Unix_error _ -> -1
    | ic ->
        let line = try input_line ic with End_of_file -> "" in
        ignore (Unix.close_process_in ic : Unix.process_status);
        Option.value ~default:(-1) (int_of_string_opt (String.trim line))
  in
  let num i = J.Num (float_of_int i) in
  [
    ("commit", J.Str (W.commit ctx));
    ("ocaml", J.Str Sys.ocaml_version);
    ("nproc", num nproc);
    ("recommended_domain_count", num (Domain.recommended_domain_count ()));
    ("analysis_domains", num ctx.W.config.Scalana.Config.analysis_domains);
    ("seed", num ctx.W.config.Scalana.Config.seed);
  ]

let measure_workload ~(ctx : W.ctx) ~seconds ~traced (w : W.t) =
  let setups =
    List.init (if ctx.W.smoke then 1 else w.W.setups) (fun _ ->
        Gc.compact ();
        W.timed (fun () ->
            prepare_in_child ctx w;
            w.W.setup ctx))
  in
  let inst = fst (List.nth setups (List.length setups - 1)) in
  let setup_times = List.map snd setups in
  let min_passes = if ctx.W.smoke then 1 else 3 in
  let m = measure inst ~traced ~seconds ~min_passes:(if traced then 2 * min_passes else min_passes) in
  let heaps = List.mapi (fun i _ -> heap_probe_in_child ctx w i) inst.W.units in
  let plain = List.filter (fun s -> Option.is_none s.trace) m.samples in
  let traced_samples = List.filter (fun s -> Option.is_some s.trace) m.samples in
  let fin =
    try inst.W.finish ()
    with e -> { no_finish with W.checks = [ ("finish raised " ^ Printexc.to_string e, false) ] }
  in
  let e2e =
    e2e_metrics
      ~wall:(sum_of_minima plain (fun s -> s.wall))
      ~setup:(W.median setup_times)
      ~heap_words:(List.fold_left (fun acc h -> max acc (Option.value ~default:0 h)) 0 heaps)
      ~fin
  in
  let layers = if traced then layer_metrics m.samples else [] in
  let checks =
    fin.W.checks
    @ [
        ("peak heap probes", List.for_all Option.is_some heaps);
        ("metrics finite", List.for_all (fun (_, _, v) -> Float.is_finite v) (e2e @ layers));
      ]
    @
    if traced && not ctx.W.smoke then
      let cov = List.fold_left (fun acc (n, _, v) -> if n = "trace.coverage" then v else acc) 0.0 layers in
      [ ("trace.coverage within [0.95, 1.05]", cov >= 0.95 && cov <= 1.05) ]
    else []
  in
  if traced then
    write_chrome_trace
      (Filename.concat (scratch_root ctx.W.root) ("trace-" ^ w.W.name ^ ".json"))
      traced_samples;
  let unit_timings samples =
    J.Obj
      (List.map
         (fun ss ->
           (List.nth inst.W.units (List.hd ss).unit, timing_json (List.map (fun s -> s.wall) ss)))
         (per_unit samples))
  in
  let failed = m.failed + List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let finite = List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) in
  {
    correct = failed = 0;
    attempted = m.attempted + List.length checks;
    failed;
    e2e = finite e2e;
    layers = finite layers;
    detail =
      J.Obj
        ((("workload", J.Str w.W.name) :: stamp ctx)
        @ [
            ("passes", J.Num (float_of_int m.passes));
            ("setup_s", timing_json setup_times);
            ("units_s", unit_timings plain);
            ("traced_units_s", unit_timings traced_samples);
            ( "layers_s",
              J.Obj (List.map (fun (n, v) -> (n, J.Num v)) (layer_seconds traced_samples)) );
            ( "checks",
              J.Arr
                (List.map (fun (n, ok) -> J.Obj [ ("check", J.Str n); ("ok", J.Bool ok) ]) checks)
            );
          ]);
  }

(* A run that cannot set up still prints a result: nothing correct. *)
let run_workload ~(ctx : W.ctx) ~seconds ~traced (w : W.t) =
  W.rm_rf (Filename.dirname ctx.W.work);
  W.mkdir_p ctx.W.work;
  let r =
    try measure_workload ~ctx ~seconds ~traced w
    with e ->
      let msg = w.W.name ^ " failed: " ^ Printexc.to_string e in
      prerr_endline msg;
      {
        correct = false;
        attempted = 1;
        failed = 1;
        e2e = List.map (fun (n, u) -> (n, u, 0.0)) end_to_end;
        layers = (if traced then List.map (fun (n, u) -> (n, u, 0.0)) per_layer else []);
        detail = J.Obj ((("workload", J.Str w.W.name) :: stamp ctx) @ [ ("error", J.Str msg) ]);
      }
  in
  W.rm_rf (Filename.dirname ctx.W.work);
  (* the scratch root too, once no trace file is left in it *)
  (try Sys.rmdir (scratch_root ctx.W.root) with Sys_error _ -> ());
  r

let result_json ~traced r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Num (float_of_int r.attempted));
      ("failed", J.Num (float_of_int r.failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun (n, u, v) -> (n, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ]))
             (if traced then r.layers else r.e2e)) );
    ]

let print_summary ?(metrics = true) name r =
  Printf.eprintf "%s: %s, %d/%d operations ok\n" name
    (if r.correct then "correct" else "INCORRECT")
    (r.attempted - r.failed) r.attempted;
  if metrics then
    List.iter (fun (n, u, v) -> Printf.eprintf "  %-24s %14.6g %s\n" n v u) (r.e2e @ r.layers);
  (match J.member "checks" r.detail with
  | Some (J.Arr cs) ->
      List.iter
        (fun c ->
          match (J.member "check" c, J.member "ok" c) with
          | Some (J.Str n), Some (J.Bool false) -> Printf.eprintf "  FAILED: %s\n" n
          | _ -> ())
        cs
  | _ -> ());
  flush stderr

(* --- command line --- *)

let workload = ref ""
let seed = ref 42
let seconds = ref 15.0
let trace = ref 0
let smoke = ref false
let root = ref "."
let prepare = ref ""
let heap_probe = ref ""
let unit_index = ref 0

let spec =
  [
    ("--workload", Arg.Set_string workload, "W run one workload in this process");
    ("--seed", Arg.Set_int seed, "S Config.seed and program order (default 42)");
    ("--seconds", Arg.Set_float seconds, "N measured seconds per run (default 15)");
    ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end");
    ("--traced", Arg.Unit (fun () -> trace := 1), " same as --trace 1");
    ("--smoke", Arg.Set smoke, " toy scales, 2 passes; check metric names");
    ("--root", Arg.Set_string root, "DIR checkout root (default .)");
    ("--prepare", Arg.Set_string prepare, "W set-up child: write W's inputs");
    ("--heap-probe", Arg.Set_string heap_probe, "W child: print the peak heap of one unit");
    ("--unit", Arg.Set_int unit_index, "I the unit --heap-probe runs");
  ]

let usage = "main.exe [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]"

(* [scratch] keeps the heap-probe child out of its parent's files. *)
let ctx_for ?(scratch = "work") (w : W.t) =
  let dir = Filename.concat (scratch_root !root) w.W.name in
  {
    W.config = { Scalana.Config.default with seed = !seed; analysis_domains = 1 };
    smoke = !smoke;
    root = !root;
    inputs = Filename.concat dir "inputs";
    work = Filename.concat dir scratch;
  }

let find name =
  match W.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
      exit 2

let one w =
  let traced = !trace = 1 in
  let r = run_workload ~ctx:(ctx_for w) ~seconds:!seconds ~traced w in
  print_summary w.W.name r;
  print_endline (J.to_string r.detail);
  print_endline (J.to_string (result_json ~traced r));
  exit (if r.correct then 0 else 1)

(* Each workload in its own child process; the last line maps every
   workload to its result. *)
let all_workloads () =
  let results =
    List.map
      (fun (w : W.t) ->
        let ok, out =
          run_self
            ([ "--workload"; w.W.name; "--seconds"; Printf.sprintf "%g" !seconds;
               "--trace"; string_of_int !trace ]
            @ child_args (ctx_for w))
        in
        let result =
          match List.rev (String.split_on_char '\n' (String.trim out)) with
          | l :: _ -> J.of_string l
          | [] -> Error "no output"
        in
        (w.W.name, ok, result))
      W.all
  in
  List.iter
    (fun (name, ok, res) ->
      Printf.printf "%-16s %s" name (if ok then "ok  " else "FAIL");
      (match Result.map (J.member "metrics") res with
      | Ok (Some (J.Obj ms)) ->
          List.iter
            (fun (n, m) ->
              match (J.member "value" m, J.member "unit" m) with
              | Some (J.Num v), Some (J.Str u) -> Printf.printf "  %s=%.6g %s" n v u
              | _ -> ())
            ms
      | Ok _ -> ()
      | Error e -> Printf.printf "  (no result: %s)" e);
      print_newline ())
    results;
  print_endline
    (J.to_string
       (J.Obj
          (List.map (fun (name, _, res) -> (name, Result.value res ~default:J.Null)) results)));
  exit (if List.for_all (fun (_, ok, _) -> ok) results then 0 else 1)

(* Every workload at toy scales, traced; both metric sets must be the
   ones BENCHMARK.json declares, names and units, and every end-to-end
   value positive. *)
let run_smoke () =
  let declared key =
    match J.of_string (W.read_file (Filename.concat !root "BENCHMARK.json")) with
    | Ok j -> (
        match J.member key j with
        | Some (J.Arr ms) ->
            List.filter_map
              (fun m ->
                match (J.member "name" m, J.member "unit" m) with
                | Some (J.Str n), Some (J.Str u) -> Some (n, u)
                | _ -> None)
              ms
        | _ -> [])
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (key, expected) ->
      if declared key <> expected then problem "%s metrics differ from BENCHMARK.json" key)
    [ ("end_to_end", end_to_end); ("per_layer", per_layer) ];
  List.iter
    (fun (w : W.t) ->
      let r = run_workload ~ctx:(ctx_for w) ~seconds:0.0 ~traced:true w in
      print_summary ~metrics:false w.W.name r;
      if not r.correct then problem "%s: incorrect" w.W.name;
      if catalogue r.e2e <> end_to_end || catalogue r.layers <> per_layer then
        problem "%s: metric names or units" w.W.name;
      List.iter (fun (n, _, v) -> if v <= 0.0 then problem "%s: %s is %g" w.W.name n v) r.e2e)
    W.all;
  W.rm_rf (scratch_root !root);
  match !problems with
  | [] -> print_endline "smoke ok"
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !prepare <> "" then
    let w = find !prepare in
    w.W.prepare (ctx_for w)
  else if !heap_probe <> "" then begin
    let w = find !heap_probe in
    let ctx = ctx_for ~scratch:"heap" w in
    W.mkdir_p ctx.W.work;
    ignore ((w.W.setup ctx).W.run None !unit_index : string);
    W.rm_rf ctx.W.work;
    print_int (Gc.quick_stat ()).Gc.top_heap_words
  end
  else if !workload <> "" then one (find !workload)
  else if !smoke then run_smoke ()
  else all_workloads ()
