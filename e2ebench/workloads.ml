(* The five benchmark workloads.

   Each one loads its inputs in [setup], then hands the measurement
   loop an [instance]: the units of a pass to time, the extra layer
   split a traced run adds, and the untimed output checks.  An untraced
   unit calls the library's own entry points (Pipeline.run,
   Pipeline.detect_session, Static.analyze, ...).  A traced unit calls
   the layers those entry points compose, one span per layer; its
   report must equal the untraced one, which pins the composition to
   the library's. *)

open Scalana
module R = Scalana_apps.Registry
module Crossscale = Scalana_ppg.Crossscale
module Ppg = Scalana_ppg.Ppg
module D = Scalana_detect
module History = Scalana_obs.History

type ctx = {
  config : Config.t;  (** [Config.seed] = the run's seed, one domain *)
  smoke : bool;  (** toy scales: at most 16 ranks *)
  root : string;  (** checkout root; the golden reports are read here *)
  inputs : string;  (** where the set-up child writes the inputs *)
  work : string;  (** scratch directory of the measuring process *)
}

type finish = {
  checks : (string * bool) list;
  overhead_pct : float;
  artifact_bytes : int;
}

(* A pass runs every unit once, in order.  The measurement loop times
   each unit on its own, after a Gc.compact, so one unit's garbage is
   never collected on another's clock.  [after] runs untimed right
   after each unit: it checks the unit's output, records the traced-only
   split when given a recorder, and drops the output, so no unit's
   result is live while another runs. *)
type instance = {
  units : string list;  (** the operations of one pass, in run order *)
  run : Trace.t option -> int -> string;  (** unit [i]; its output's fingerprint *)
  after : Trace.t option -> int -> unit;
  finish : unit -> finish;
}

(* Output checks, each the conjunction of every time it was made. *)
type checks = (string * bool) list ref

let check (c : checks) name ok =
  c :=
    if List.mem_assoc name !c then
      List.map (fun (n, v) -> if n = name then (n, v && ok) else (n, v)) !c
    else !c @ [ (name, ok) ]

(* Set-up is two steps, repeated [setups] times: a fresh child process
   runs [prepare], which writes the workload's inputs to [ctx.inputs]
   (MiniMPI sources, or a stored session); then this process runs
   [setup], which loads them.  setup_s is the median of the repeats. *)
type t = {
  name : string;
  setups : int;
  prepare : ctx -> unit;
  setup : ctx -> instance;
}

(* --- helpers --- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The seed fixes the order of programs within a pass.  Inputs are
   loaded before shuffling, so the heap they leave does not depend on
   the seed. *)
let shuffle ctx xs =
  let st = Random.State.make [| ctx.config.Config.seed; 0xbe4c |] in
  List.map (fun x -> (Random.State.bits st, x)) xs
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [git] only where the checkout is a repository: elsewhere the commit
   is unknown and no process is started. *)
let commit ctx =
  if Sys.file_exists (Filename.concat ctx.root ".git") then History.current_commit ()
  else "unknown"

(* --- the traced composition of Pipeline.detect / Pipeline.run --- *)

let traced_detect tr ~config ?timeline (static : Static.t) runs =
  let psg = Static.psg static in
  let t0 = Unix.gettimeofday () in
  let crossscale =
    Trace.span tr "ppg.build" (fun () ->
        Crossscale.create ~psg
          (List.map (fun (n, (r : Prof.run)) -> (n, r.Prof.data)) runs))
  in
  let waitstate =
    Option.map
      (fun tl -> Trace.span tr "waitstate.analyze" (fun () -> D.Waitstate.analyze tl))
      timeline
  in
  let analysis =
    Trace.span tr "rootcause.analyze" (fun () ->
        D.Rootcause.analyze ~ns_config:(Config.ns_config config)
          ~ab_config:(Config.ab_config config)
          ~bt_config:(Config.bt_config config) ?waitstate crossscale)
  in
  let detect_seconds = Unix.gettimeofday () -. t0 in
  let lint = Trace.span tr "lint.run" (fun () -> Lint.run static.Static.program) in
  (* the benchmark's sessions are fault-free: the only quality entries
     are the analysis' own counts *)
  let quality =
    {
      D.Quality.clean with
      quarantined_values = analysis.D.Rootcause.quarantined_values;
      insufficient_vertices = List.length analysis.D.Rootcause.insufficient;
    }
  in
  let report =
    Trace.span tr "report.render" (fun () ->
        D.Report.render ~program:static.Static.program
          ~predicted_locs:(List.map (fun (f : Lint.finding) -> f.Lint.loc) lint)
          ~quality ~ppg:(snd (Crossscale.largest crossscale)) ~psg analysis)
  in
  let count name v = Trace.count tr name (float_of_int v) in
  count "lint.findings" (List.length lint);
  count "nonscalable.findings" (List.length analysis.D.Rootcause.nonscalable);
  count "abnormal.findings" (List.length analysis.D.Rootcause.abnormal);
  count "rootcause.paths" (List.length analysis.D.Rootcause.paths);
  count "rootcause.causes" (List.length analysis.D.Rootcause.causes);
  count "report.bytes" (String.length report);
  List.iter
    (fun (_, ppg) -> count "ppg.bytes" (Ppg.storage_bytes ppg))
    crossscale.Crossscale.runs;
  Option.iter
    (fun (ws : D.Waitstate.t) ->
      let sum a = Array.fold_left ( +. ) 0.0 a in
      Trace.count tr "waitstate.attributed_s" (sum ws.D.Waitstate.rank_attributed);
      Trace.count tr "waitstate.blocked_s" (sum ws.D.Waitstate.rank_blocked))
    waitstate;
  {
    Pipeline.static;
    runs;
    crossscale;
    analysis;
    lint;
    quality;
    detect_seconds;
    phase_costs = [];
    timeline;
    history = [];
    report;
  }

(* The compile-time split: the PSG passes and the symbolic
   communication-cost analysis Static.analyze runs, called again on
   their own. *)
let probe_static tr ~config prog =
  let probe name f = Trace.span tr ~cat:"probe" name f in
  let locals = probe "psg.intra" (fun () -> Scalana_psg.Intra.build_all prog) in
  let full = probe "psg.inter" (fun () -> Scalana_psg.Inter.build ~locals prog) in
  ignore
    (probe "psg.contract" (fun () ->
         Scalana_psg.Contract.run ~max_loop_depth:config.Config.max_loop_depth full)
      : Scalana_psg.Contract.result);
  ignore
    (probe "cfg.commcost" (fun () -> Scalana_cfg.Commcost.analyze prog)
      : Scalana_cfg.Commcost.t)

(* The detection split: the two detectors Rootcause.analyze runs before
   backtracking, called again on their own. *)
let probe_detect tr ~config (crossscale : Crossscale.t) =
  let probe name f = Trace.span tr ~cat:"probe" name f in
  ignore
    (probe "nonscalable.detect" (fun () ->
         D.Nonscalable.detect_result ~config:(Config.ns_config config) crossscale)
      : D.Nonscalable.result);
  ignore
    (probe "abnormal.detect" (fun () ->
         D.Abnormal.detect ~config:(Config.ab_config config)
           (snd (Crossscale.largest crossscale)))
      : D.Abnormal.finding list);
  let words = Obj.reachable_words (Obj.repr crossscale)
  and psg_words = Obj.reachable_words (Obj.repr crossscale.Crossscale.psg) in
  Trace.count tr "ppg.live_words" (float_of_int (words - psg_words))

(* --- inputs: MiniMPI sources written by the set-up child --- *)

(* One directory per program holding its source under the program's own
   file name, so parsing restores the registry's source locations. *)
let write_sources ctx names =
  let dir = ctx.inputs in
  rm_rf dir;
  List.iter
    (fun name ->
      let prog = (R.find name).R.make () in
      let d = Filename.concat dir name in
      mkdir_p d;
      Out_channel.with_open_bin
        (Filename.concat d prog.Scalana_mlang.Ast.file)
        (fun oc -> output_string oc (Scalana_mlang.Pretty.render prog)))
    names

let load_source ctx name =
  let d = Filename.concat ctx.inputs name in
  match Sys.readdir d with
  | [| file |] ->
      let prog =
        Scalana_mlang.Parser.parse ~file (read_file (Filename.concat d file))
      in
      (match Scalana_mlang.Validate.run prog with
      | Ok () -> ()
      | Error _ -> failwith ("invalid input " ^ file));
      prog
  | _ -> failwith ("no single source in " ^ d)

(* --- pipeline workloads: registry-strong, cg-weak-2k, wait-states --- *)

type job = { entry : R.entry; scales : int list; timeline : bool }

let traced_run tr ~config job prog =
  let cost = job.entry.R.cost in
  let static =
    Trace.span tr "static.analyze" (fun () ->
        Static.analyze ~max_loop_depth:config.Config.max_loop_depth prog)
  in
  Trace.count tr "psg.vertices"
    (float_of_int (Scalana_psg.Psg.n_vertices (Static.psg static)));
  let runs =
    List.map
      (fun n ->
        ( n,
          Trace.span tr "prof.run" (fun () ->
              Prof.run_with_retry ~retries:config.Config.max_run_retries ~config
                ~cost static ~nprocs:n ()) ))
      job.scales
  in
  List.iter
    (fun (_, (r : Prof.run)) ->
      Trace.count tr "profile.bytes"
        (float_of_int (Scalana_profile.Profdata.storage_bytes r.Prof.data)))
    runs;
  let timeline =
    if job.timeline then begin
      let tl =
        Trace.span tr "timeline.capture" (fun () ->
            Pipeline.rank_timeline ~config ~cost static
              ~nprocs:(List.fold_left max 0 job.scales))
      in
      Trace.count tr "timeline.dropped"
        (float_of_int (Scalana_profile.Timeline.total_dropped tl));
      Some tl
    end
    else None
  in
  traced_detect tr ~config ?timeline static runs

let count_live_profiles tr runs =
  List.iter
    (fun (_, (r : Prof.run)) ->
      Trace.count tr "profile.live_words"
        (float_of_int (Obj.reachable_words (Obj.repr r.Prof.data))))
    runs

(* The engine split: a bare run (no tools) at every scale the pass
   profiled, so prof.hook = prof.run - exec.run. *)
let probe_run tr ~config job prog (pipe : Pipeline.t) =
  probe_static tr ~config prog;
  List.iter
    (fun n ->
      let r =
        Trace.span tr ~cat:"probe" "exec.run" (fun () ->
            Scalana_runtime.Exec.run
              ~cfg:(Scalana_runtime.Exec.config ~nprocs:n ~cost:job.entry.R.cost ())
              prog)
      in
      Trace.count tr "exec.events" (float_of_int r.Scalana_runtime.Exec.events);
      Trace.count tr "exec.messages" (float_of_int r.Scalana_runtime.Exec.messages))
    job.scales;
  probe_detect tr ~config pipe.Pipeline.crossscale;
  count_live_profiles tr pipe.Pipeline.runs

(* Simulated profiling overhead at the largest scale (Fig. 10): the
   profiled run's clock against a bare run of the same program. *)
let overhead_at_largest job prog (pipe : Pipeline.t) =
  let n, (r : Prof.run) =
    List.fold_left
      (fun (bn, br) (n, r) -> if n > bn then (n, r) else (bn, br))
      (List.hd pipe.Pipeline.runs) pipe.Pipeline.runs
  in
  let bare =
    Scalana_runtime.Exec.run
      ~cfg:(Scalana_runtime.Exec.config ~nprocs:n ~cost:job.entry.R.cost ())
      prog
  in
  let b = bare.Scalana_runtime.Exec.elapsed in
  100.0 *. (r.Prof.result.Scalana_runtime.Exec.elapsed -. b) /. b

let save_session dir (static : Static.t) runs =
  Artifact.save_static dir static;
  List.iter (fun (_, r) -> Artifact.save_run dir r) runs

(* Golden reports come from the default configuration at np <= 16; the
   benchmark runs them on its own parsed inputs. *)
let golden_check ctx prog ?(timeline = false) name =
  let entry = R.find name in
  let file = if timeline then name ^ "-waitstates" else name in
  let label = "golden " ^ file in
  match
    read_file
      (List.fold_left Filename.concat ctx.root [ "test"; "golden"; file ^ ".expected" ])
  with
  | exception Sys_error _ -> (label, false)
  | expected ->
      let pipe =
        Pipeline.run
          ~config:{ Config.default with analysis_domains = 1 }
          ~cost:entry.R.cost
          ~scales:(R.scales entry ~min_np:4 ~max_np:16)
          ~timeline prog
      in
      (label, String.equal pipe.Pipeline.report expected)

(* [planted] maps a program to the cause labels one of which must be
   among its reported root causes (the planted cases of test_detect);
   [goldens] lists (program, with timeline) golden reports to match. *)
let pipeline_instance ctx jobs ~planted ~goldens =
  let config = ctx.config in
  let progs =
    Array.of_list
      (shuffle ctx (List.map (fun j -> (j, load_source ctx j.entry.R.name)) jobs))
  in
  let checks = ref [] in
  let current = ref None in
  (* measured once per unit, on its first run: (overhead %, artifact bytes) *)
  let costs = Array.make (Array.length progs) None in
  let run tr i =
    let j, prog = progs.(i) in
    let pipe =
      match tr with
      | None ->
          Pipeline.run ~config ~cost:j.entry.R.cost ~scales:j.scales
            ~timeline:j.timeline prog
      | Some tr -> traced_run tr ~config j prog
    in
    current := Some pipe;
    j.entry.R.name ^ "\n" ^ pipe.Pipeline.report
  in
  let after tr i =
    let j, prog = progs.(i) in
    let name = j.entry.R.name in
    Option.iter
      (fun pipe ->
        Option.iter (fun tr -> probe_run tr ~config j prog pipe) tr;
        Option.iter
          (fun labels ->
            check checks ("planted cause " ^ name)
              (List.exists
                 (fun l -> List.exists (contains l) labels)
                 (Pipeline.root_cause_labels pipe)))
          (List.assoc_opt name planted);
        check checks ("not degraded " ^ name) (not (Pipeline.degraded pipe));
        if costs.(i) = None then begin
          let dir = Filename.concat ctx.work ("artifact-" ^ name) in
          save_session dir pipe.Pipeline.static pipe.Pipeline.runs;
          costs.(i) <- Some (overhead_at_largest j prog pipe, dir_bytes dir);
          rm_rf dir
        end)
      !current;
    current := None
  in
  let finish () =
    let goldens =
      List.map
        (fun (name, timeline) ->
          let _, prog =
            List.find (fun (j, _) -> j.entry.R.name = name) (Array.to_list progs)
          in
          golden_check ctx prog ~timeline name)
        goldens
    in
    let costs = List.filter_map Fun.id (Array.to_list costs) in
    {
      checks = !checks @ goldens;
      overhead_pct = mean (List.map fst costs);
      artifact_bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 costs;
    }
  in
  {
    units = Array.to_list (Array.map (fun (j, _) -> j.entry.R.name) progs);
    run;
    after;
    finish;
  }

let planted_causes =
  [
    ("zeusmp", [ "bval" ]);
    ("sst", [ "satisfyDependency"; "handleEvent" ]);
    ("nekbone", [ "dgemm" ]);
  ]

let pipeline_workload name ~setups jobs ~planted ~goldens =
  {
    name;
    setups;
    prepare = (fun ctx -> write_sources ctx (List.map (fun j -> j.entry.R.name) (jobs ctx)));
    setup = (fun ctx -> pipeline_instance ctx (jobs ctx) ~planted ~goldens);
  }

let strong_jobs ~max_np names =
  List.map
    (fun n ->
      let e = R.find n in
      { entry = e; scales = R.scales e ~min_np:4 ~max_np; timeline = false })
    names

(* The paper's own roster and scale range: the profiler's hooks and the
   engine carry the pass; static analysis, lint and detection are a few
   percent of it. *)
let registry_strong =
  pipeline_workload "registry-strong" ~setups:5
    (fun ctx -> strong_jobs ~max_np:(if ctx.smoke then 8 else 64) R.names)
    ~planted:planted_causes
    ~goldens:(List.map (fun n -> (n, false)) R.names)

(* Large scale: simulation and the PPG carry the pass and set the peak
   heap; static work is nil.  np=4096 and up stay in the single-shot
   sweeps of bench/parallel.ml. *)
let cg_weak =
  pipeline_workload "cg-weak-2k" ~setups:5
    (fun ctx ->
      [
        {
          entry = R.find "cg-weak";
          scales = (if ctx.smoke then [ 4; 8; 16 ] else [ 512; 1024; 2048 ]);
          timeline = false;
        };
      ])
    ~planted:[] ~goldens:[]

(* A second engine tool (the rank-timeline recorder) and the wait-state
   replay, which no other workload enters. *)
let wait_states =
  pipeline_workload "wait-states" ~setups:5
    (fun ctx ->
      List.map
        (fun j -> { j with timeline = true })
        (strong_jobs ~max_np:(if ctx.smoke then 8 else 128) [ "cg"; "bt"; "zeusmp"; "mg" ]))
    ~planted:(List.filter (fun (n, _) -> n = "zeusmp") planted_causes)
    ~goldens:[ ("cg", true); ("bt", true) ]

(* --- static-lint: the scalana-static / scalana-lint path --- *)

(* PSG construction over base compilation (Table III's Ovd%): the
   median over [rounds] rounds of the roster, each round timing both
   back to back so a slow spell on the host hits them alike. *)
let static_overhead ~rounds progs =
  let time f = snd (timed (fun () -> List.iter (fun (_, p) -> f p) progs)) in
  median
    (List.init rounds (fun _ ->
         let base = time (fun p -> Static.base_compile p) in
         let psg = time (fun p -> ignore (Static.analyze p : Static.t)) in
         100.0 *. psg /. base))

(* The compile-time layers do all the work here and almost none in the
   other workloads.  Each program is its own unit. *)
let static_lint_instance ctx =
  let config = ctx.config in
  let progs = Array.of_list (shuffle ctx (List.map (fun n -> (n, load_source ctx n)) R.names)) in
  let checks = ref [] in
  let current = ref None in
  let artifact_bytes = Array.make (Array.length progs) None in
  let run tr i =
    let name, prog = progs.(i) in
    let static =
      Trace.opt tr "static.analyze" (fun () ->
          Static.analyze ~max_loop_depth:config.Config.max_loop_depth prog)
    in
    let findings = Trace.opt tr "lint.run" (fun () -> Lint.run prog) in
    current := Some (static, findings);
    String.concat "\n"
      ((name ^ " " ^ Scalana_psg.Stats.row static.Static.stats)
      :: List.map Lint.finding_to_string findings)
  in
  let after tr i =
    let name, prog = progs.(i) in
    Option.iter
      (fun (static, findings) ->
        Option.iter
          (fun tr ->
            Trace.count tr "psg.vertices"
              (float_of_int (Scalana_psg.Psg.n_vertices (Static.psg static)));
            Trace.count tr "lint.findings" (float_of_int (List.length findings));
            probe_static tr ~config prog)
          tr;
        (* calibration: the NPB-CG transpose exchange is the one planted
           static loss; every other program stays quiet *)
        check checks ("lint calibration " ^ name)
          (match findings with
          | [ (f : Lint.finding) ] ->
              name = "cg" && f.Lint.rule = Lint.P2p_collective && f.Lint.func = "conj_grad"
          | [] -> name <> "cg"
          | _ -> false);
        if artifact_bytes.(i) = None then begin
          let d = Filename.concat ctx.work ("artifact-" ^ name) in
          Artifact.save_static d static;
          artifact_bytes.(i) <- Some (dir_bytes d);
          rm_rf d
        end)
      !current;
    current := None
  in
  let finish () =
    {
      checks = !checks;
      overhead_pct =
        static_overhead ~rounds:(if ctx.smoke then 1 else 15) (Array.to_list progs);
      artifact_bytes =
        Array.fold_left (fun acc b -> acc + Option.value ~default:0 b) 0 artifact_bytes;
    }
  in
  { units = Array.to_list (Array.map fst progs); run; after; finish }

let static_lint =
  {
    name = "static-lint";
    setups = 5;
    prepare = (fun ctx -> write_sources ctx R.names);
    setup = static_lint_instance;
  }

(* --- session-reload: the stored-profile loop of scalana-detect,
   scalana-diff and --history users; no simulation --- *)

(* Profile cg-weak and store the session, as scalana-static followed by
   scalana-prof --measure-overhead would. *)
let save_profiled_session ctx =
  let config = ctx.config in
  let entry = R.find "cg-weak" in
  let dir = ctx.inputs in
  rm_rf dir;
  let static =
    Static.analyze ~max_loop_depth:config.Config.max_loop_depth (entry.R.make ())
  in
  Artifact.save_static dir static;
  List.iter
    (fun n ->
      Artifact.save_run dir
        (Prof.run ~config ~cost:entry.R.cost ~measure_overhead:true static ~nprocs:n ()))
    (if ctx.smoke then [ 4; 8; 16 ] else [ 512; 1024; 2048 ])

let session_reload_instance ctx =
  let config = ctx.config in
  let session = Artifact.load_session ctx.inputs in
  let baseline = Pipeline.detect_session ~config session in
  let base_summary = Pipeline.diff_summary ~label:"baseline" baseline in
  let ledger = Filename.concat ctx.work "history.jsonl" in
  rm_rf ledger;
  let commit = commit ctx in
  let checks = ref [] in
  let cycles = ref 0 in
  let artifact_bytes = ref 0 in
  let current = ref None in
  let run tr _ =
    incr cycles;
    let d = Filename.concat ctx.work (Printf.sprintf "cycle-%d" !cycles) in
    Trace.opt tr "artifact.save" (fun () ->
        save_session d session.Artifact.static session.Artifact.runs);
    let loaded = Trace.opt tr "artifact.load" (fun () -> Artifact.load_session d) in
    let pipe =
      match tr with
      | None -> Pipeline.detect_session ~config loaded
      | Some tr -> traced_detect tr ~config loaded.Artifact.static loaded.Artifact.runs
    in
    let html = Trace.opt tr "htmlreport.render" (fun () -> Htmlreport.render pipe) in
    let summary =
      Trace.opt tr "diff.summary" (fun () -> Pipeline.diff_summary ~label:"cycle" pipe)
    in
    let diff =
      Trace.opt tr "diff.compare" (fun () ->
          D.Diff.compare_summaries ~base:base_summary ~cand:summary ())
    in
    Trace.opt tr "history.append" (fun () ->
        History.append ~path:ledger
          (Pipeline.history_entry ~time:(float_of_int !cycles) ~commit ~label:"e2ebench"
             pipe));
    current := Some (d, loaded, pipe, diff, html);
    pipe.Pipeline.report
  in
  let after tr _ =
    Option.iter
      (fun (d, loaded, (pipe : Pipeline.t), diff, html) ->
        Option.iter
          (fun tr ->
            probe_detect tr ~config pipe.Pipeline.crossscale;
            List.iter
              (fun (_, (r : Prof.run)) ->
                Trace.count tr "profile.bytes"
                  (float_of_int (Scalana_profile.Profdata.storage_bytes r.Prof.data)))
              pipe.Pipeline.runs;
            count_live_profiles tr pipe.Pipeline.runs)
          tr;
        check checks "session reloads intact" (loaded.Artifact.issues = []);
        check checks "reloaded report equals baseline"
          (String.equal pipe.Pipeline.report baseline.Pipeline.report);
        check checks "diff clean"
          ((not (D.Diff.has_regressions diff))
          && diff.D.Diff.n_new = 0 && diff.D.Diff.n_gone = 0
          && not diff.D.Diff.degraded);
        check checks "html rendered" (String.length html > 0);
        check checks "not degraded" (not (Pipeline.degraded pipe));
        artifact_bytes := dir_bytes d;
        rm_rf d)
      !current;
    current := None
  in
  let finish () =
    let l = History.load ~path:ledger in
    let largest =
      List.fold_left
        (fun acc (n, r) -> if n > fst acc then (n, Some r) else acc)
        (0, None) session.Artifact.runs
    in
    {
      checks =
        !checks
        @ [
            ( "ledger loads every cycle, 0 dropped",
              l.History.dropped = 0 && List.length l.History.entries = !cycles );
          ];
      overhead_pct = Option.value ~default:0.0 (Option.bind (snd largest) Prof.overhead_percent);
      artifact_bytes = !artifact_bytes;
    }
  in
  { units = [ "cycle" ]; run; after; finish }

let session_reload =
  {
    name = "session-reload";
    setups = 3;
    prepare = save_profiled_session;
    setup = session_reload_instance;
  }

let all = [ registry_strong; cg_weak; session_reload; static_lint; wait_states ]

let find name = List.find_opt (fun w -> w.name = name) all
