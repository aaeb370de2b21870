(* One harness per table/figure of the paper's evaluation (Section VI).

   Each function regenerates the corresponding rows/series on the
   simulated substrate and prints the paper's reference numbers next to
   them.  Absolute values differ (simulator vs Tianhe-2/Gorgon); the
   shape — who wins, by what order, where the loss comes from — is the
   reproduction target (see EXPERIMENTS.md). *)

open Scalana_mlang
open Scalana_runtime
open Util

let max_np = ref 128

(* Shared tool-comparison sweep, cached per program. *)
let sweep_cache : (string, (int * Scalana.Experiment.measurement list) list) Hashtbl.t =
  Hashtbl.create 8

let sweep name =
  match Hashtbl.find_opt sweep_cache name with
  | Some s -> s
  | None ->
      let entry = Scalana_apps.Registry.find name in
      let scales = scales_for entry ~max_np:!max_np in
      let s =
        List.map
          (fun nprocs ->
            ( nprocs,
              Scalana.Experiment.tool_comparison ~cost:entry.cost
                (entry.make ()) ~nprocs ))
          scales
      in
      Hashtbl.replace sweep_cache name s;
      s

let find_tool ms k =
  List.find (fun (m : Scalana.Experiment.measurement) -> m.tool = k) ms

(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table I — NPB-CG, 128 processes: overhead and storage per tool";
  let ms = List.assoc (min 128 !max_np) (sweep "cg") in
  Printf.printf "  %-28s %12s %12s\n" "Tool" "Overhead" "Storage";
  List.iter
    (fun (m : Scalana.Experiment.measurement) ->
      Printf.printf "  %-28s %11.2f%% %12s\n"
        (Scalana.Experiment.tool_name m.tool)
        m.overhead_pct (human_bytes m.storage_bytes))
    ms;
  paper "Scalasca 25.3%% / 6.77 GB; HPCToolkit 8.41%% / 11.45 MB;";
  paper "ScalAna 3.53%% / 314 KB   (CG class C, 128 procs)";
  note "shape target: tracing >> profiling >= ScalAna on both axes"

let fig2 () =
  section "Fig. 2 — injected delay in one process of NPB-CG";
  let entry = Scalana_apps.Registry.find "cg" in
  let prog = entry.make () in
  let spmv_loc = ref Loc.none in
  Ast.iter_program
    (fun s ->
      match s.Ast.node with
      | Ast.Comp { label = Some "spmv"; _ } -> spmv_loc := s.Ast.loc
      | _ -> ())
    prog;
  let inject = Inject.create [ Inject.delay ~ranks:[ 4 ] ~loc:!spmv_loc 1.0 ] in
  let pipe = Scalana.Pipeline.run ~cost:entry.cost ~inject ~scales:[ 8 ] prog in
  Printf.printf "  injected: +1s per iteration on rank 4 at %s\n"
    (Loc.to_string !spmv_loc);
  List.iteri
    (fun idx (c : Scalana_detect.Rootcause.cause) ->
      Printf.printf "  cause #%d: %s @%s (culprit ranks %s)\n" (idx + 1)
        c.cause_label
        (Loc.to_string c.cause_loc)
        (String.concat "," (List.map string_of_int c.culprit_ranks)))
    pipe.analysis.causes;
  (match pipe.analysis.causes with
  | c :: _ ->
      Printf.printf "  backtracking path:\n    %s\n"
        (Fmt.str "%a" (Scalana_detect.Backtrack.pp_path (Scalana.Static.psg pipe.static))
           c.example_path)
  | [] -> ());
  paper "the red vertex of process 4 is identified through a path";
  paper "traversing different processes (Fig. 2c)"

let fig4 () =
  section "Fig. 4 — PSG generation stages (Fig. 3 toy program)";
  let b = Builder.create ~file:"fig3.mmp" ~name:"fig3-toy" () in
  let open Expr.Infix in
  Builder.param b "n" 1000;
  Builder.func b "foo" (fun () ->
      [
        Builder.branch b
          ~cond:(rank % i 2 = i 0)
          ~else_:(fun () -> [ Builder.recv b ~src:(rank - i 1) ~bytes:(i 64) () ])
          (fun () -> [ Builder.send b ~dest:(rank + i 1) ~bytes:(i 64) () ]);
      ]);
  Builder.func b "main" (fun () ->
      [
        Builder.loop b ~label:"loop1" ~var:"ii" ~count:(p "n") (fun () ->
            [
              Builder.comp b ~label:"a_fill" ~flops:(p "n") ~mem:(p "n") ();
              Builder.loop b ~label:"loop1_1" ~var:"j" ~count:(v "ii") (fun () ->
                  [ Builder.comp b ~label:"sum" ~flops:(p "n") ~mem:(p "n") () ]);
              Builder.loop b ~label:"loop1_2" ~var:"k" ~count:(v "ii") (fun () ->
                  [ Builder.comp b ~label:"product" ~flops:(p "n") ~mem:(p "n") () ]);
              Builder.call b "foo";
              Builder.bcast b ~bytes:(i 8) ();
            ]);
      ]);
  let prog = Builder.program b in
  let locals = Scalana_psg.Intra.build_all prog in
  Hashtbl.iter
    (fun name local ->
      Printf.printf "  local PSG of %-6s: %d vertices\n" name
        (Scalana_psg.Psg.n_vertices local))
    locals;
  let full = Scalana_psg.Inter.build ~locals prog in
  Printf.printf "  complete PSG (inter-procedural): %d vertices\n"
    (Scalana_psg.Psg.n_vertices full);
  let c1 = Scalana_psg.Contract.run ~max_loop_depth:1 full in
  Printf.printf "  contracted PSG (MaxLoopDepth=1): %d vertices\n"
    (Scalana_psg.Psg.n_vertices c1.Scalana_psg.Contract.psg);
  Fmt.pr "%a" Scalana_psg.Psg.pp c1.Scalana_psg.Contract.psg;
  paper "Fig. 4(c): Loop1.1/Loop1.2 merge into a Comp when MaxLoopDepth=1"

let fig7 () =
  section "Fig. 7 — problematic-vertex examples (zeus-mp data)";
  let pipe = pipeline ~max_np:(min 32 !max_np) "zeusmp" in
  let psg = Scalana.Static.psg pipe.static in
  Printf.printf "  (a) non-scalable vertex: aggregated time vs process count\n";
  (match pipe.analysis.nonscalable with
  | f :: _ ->
      let v = Scalana_psg.Psg.vertex psg f.vertex in
      Printf.printf "      vertex %s @%s (slope %+.2f)\n"
        (Scalana_psg.Vertex.label v)
        (Loc.to_string v.Scalana_psg.Vertex.loc)
        f.slope;
      List.iter
        (fun (np, t) -> Printf.printf "      np=%4d  time=%8.4fs\n" np t)
        f.series
  | [] -> print_endline "      (none detected)");
  Printf.printf "  (b) abnormal vertex: per-rank times at the largest scale\n";
  (match pipe.analysis.abnormal with
  | f :: _ ->
      let v = Scalana_psg.Psg.vertex psg f.vertex in
      let _, ppg = Scalana_ppg.Crossscale.largest pipe.crossscale in
      let times =
        Option.value ~default:[||] (Scalana_ppg.Ppg.times ppg ~vertex:f.vertex)
      in
      Printf.printf "      vertex %s: [%s]\n"
        (Scalana_psg.Vertex.label v)
        (bars times);
      Printf.printf "      deviating ranks: %s\n"
        (String.concat "," (List.map string_of_int f.ranks))
  | [] -> print_endline "      (none detected)");
  paper "(a) one vertex's time does not decrease like the others;";
  paper "(b) some ranks take much longer at the same vertex"

let fig8 () =
  section "Fig. 6/8 — PPG with performance data and backtracking (8 ranks)";
  let pipe = pipeline ~max_np:8 "zeusmp" in
  let _, ppg = Scalana_ppg.Crossscale.largest pipe.crossscale in
  Printf.printf "  PPG: %d PSG vertices x 8 ranks, %d comm-dependence entries\n"
    (Scalana_psg.Psg.n_vertices (Scalana.Static.psg pipe.static))
    (Scalana_ppg.Ppg.n_comm_edges ppg);
  Printf.printf "  problematic vertices: %d non-scalable, %d abnormal\n"
    (List.length pipe.analysis.nonscalable)
    (List.length pipe.analysis.abnormal);
  (match pipe.analysis.paths with
  | path :: _ ->
      Printf.printf "  one backtracking path (red line of Fig. 8):\n    %s\n"
        (Fmt.str "%a"
           (Scalana_detect.Backtrack.pp_path (Scalana.Static.psg pipe.static))
           path)
  | [] -> ());
  paper "backtracking connects abnormal vertices across processes 0,2,4"

let table2 () =
  section "Table II — code size and PSG vertices per program";
  Printf.printf "  %s\n" Scalana_psg.Stats.header;
  let ratios = ref [] in
  List.iter
    (fun (e : Scalana_apps.Registry.entry) ->
      let static = Scalana.Static.analyze (e.make ()) in
      Printf.printf "  %s\n" (Scalana_psg.Stats.row static.stats);
      ratios := Scalana_psg.Stats.contraction_ratio static.stats :: !ratios)
    Scalana_apps.Registry.all;
  let mean =
    List.fold_left ( +. ) 0.0 !ratios /. float_of_int (List.length !ratios)
  in
  Printf.printf "  mean contraction: %.0f%% of vertices removed\n" (100.0 *. mean);
  paper "graph contraction removes 68%% of vertices on average;";
  paper "Comp+MPI make up >73%% of contracted vertices";
  note "our MiniMPI sources are skeletal, so absolute KLoc/vertex counts";
  note "are smaller; Zeus-MP is the largest program, as in the paper"

(* Table III's split: the PSG passes Static.analyze runs (local and
   inter-procedural PSGs, contraction, the attribution index and the
   def-use edges), timed on their own. *)
let psg_passes prog () =
  let open Scalana_psg in
  let locals = Intra.build_all prog in
  let full = Inter.build ~locals prog in
  let contraction =
    Contract.run ~max_loop_depth:Contract.default_max_loop_depth full
  in
  ignore (Index.build ~full ~contraction : Index.t);
  ignore (Datadep.annotate ~full ~contraction prog : Datadep.summary)

let table3 () =
  section "Table III — static (compile-time) overhead per program";
  Printf.printf "  %-10s %8s %8s %8s\n" "Program" "Ovd(%)" "PSG(%)" "Comm(%)";
  let ovds = ref [] in
  List.iter
    (fun (e : Scalana_apps.Registry.entry) ->
      let prog = e.make () in
      let ovd = Scalana.Static.static_overhead prog in
      let psg = Scalana.Static.overhead_pct prog (psg_passes prog) in
      let comm =
        Scalana.Static.overhead_pct prog (fun () ->
            ignore (Scalana_cfg.Commcost.analyze prog : Scalana_cfg.Commcost.t))
      in
      ovds := ovd :: !ovds;
      Printf.printf "  %-10s %8.2f %8.2f %8.2f\n" e.name ovd psg comm)
    Scalana_apps.Registry.all;
  Printf.printf "  mean Ovd: %.2f%%\n"
    (List.fold_left ( +. ) 0.0 !ovds /. float_of_int (List.length !ovds));
  paper "0.28%% to 3.01%%, 0.89%% on average (vs LLVM compilation)";
  note "base compile modeled as parse+validate+150 CFG/dominance/loop passes;";
  note "Ovd = Static.analyze, PSG = its PSG passes alone, Comm = its";
  note "communication-cost analysis alone; each a median of 5 rounds";
  note "timing a base compile and the pass back to back"

let fig10 () =
  section "Fig. 10 — mean runtime overhead, 4..128 processes (no I/O)";
  Printf.printf "  %-10s %22s %22s %22s\n" "Program" "Scalasca-like"
    "HPCToolkit-like" "ScalAna";
  let grand = Hashtbl.create 4 in
  List.iter
    (fun (e : Scalana_apps.Registry.entry) ->
      let per_tool = Hashtbl.create 4 in
      List.iter
        (fun (_, ms) ->
          List.iter
            (fun (m : Scalana.Experiment.measurement) ->
              let l = try Hashtbl.find per_tool m.tool with Not_found -> [] in
              Hashtbl.replace per_tool m.tool (m.overhead_pct :: l))
            ms)
        (sweep e.name);
      let mean k =
        let l = try Hashtbl.find per_tool k with Not_found -> [] in
        let m = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
        let g = try Hashtbl.find grand k with Not_found -> [] in
        Hashtbl.replace grand k (m :: g);
        m
      in
      Printf.printf "  %-10s %21.2f%% %21.2f%% %21.2f%%\n" e.name
        (mean Scalana.Experiment.Tracing_tool)
        (mean Scalana.Experiment.Callpath_tool)
        (mean Scalana.Experiment.Scalana_tool))
    Scalana_apps.Registry.all;
  let gmean k =
    let l = try Hashtbl.find grand k with Not_found -> [] in
    List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))
  in
  Printf.printf "  %-10s %21.2f%% %21.2f%% %21.2f%%\n" "MEAN"
    (gmean Scalana.Experiment.Tracing_tool)
    (gmean Scalana.Experiment.Callpath_tool)
    (gmean Scalana.Experiment.Scalana_tool);
  paper "ScalAna 0.72-9.73%%, mean 3.52%%; much lower than Scalasca";
  paper "(and 1.73%% mean at 2,048 procs on Tianhe-2)"

let fig11 () =
  section "Fig. 11 — storage cost at the largest scale per tool";
  Printf.printf "  %-10s %14s %14s %14s\n" "Program" "Scalasca-like"
    "HPCToolkit-like" "ScalAna";
  List.iter
    (fun (e : Scalana_apps.Registry.entry) ->
      let s = sweep e.name in
      let np, ms = List.nth s (List.length s - 1) in
      let g k = (find_tool ms k).Scalana.Experiment.storage_bytes in
      Printf.printf "  %-10s %14s %14s %14s  (np=%d)\n" e.name
        (human_bytes (g Scalana.Experiment.Tracing_tool))
        (human_bytes (g Scalana.Experiment.Callpath_tool))
        (human_bytes (g Scalana.Experiment.Scalana_tool))
        np)
    Scalana_apps.Registry.all;
  paper "ScalAna needs kilobytes where Scalasca needs MB..GB";
  paper "(and 4.72 MB mean for NPB at 2,048 procs)"

let table4 () =
  section "Table IV — post-mortem detection cost at the largest scale";
  Printf.printf "  %-10s %10s %10s\n" "Program" "Cost(s)" "Causes";
  List.iter
    (fun (e : Scalana_apps.Registry.entry) ->
      let pipe = pipeline ~max_np:!max_np e.name in
      Printf.printf "  %-10s %10.3f %10d\n" e.name pipe.detect_seconds
        (List.length pipe.analysis.causes))
    Scalana_apps.Registry.all;
  paper "0.29 s (EP) to 11.81 s (Zeus-MP) on 128 processes;";
  paper "up to 8.44%% of program execution time"

(* --- case studies --- *)

let speedup_rows name ~baseline_np ~scales =
  let entry = Scalana_apps.Registry.find name in
  let rows =
    Scalana.Experiment.speedup ~cost:entry.cost ~make:entry.make ~baseline_np
      ~scales ()
  in
  Printf.printf "  %-6s %12s %12s %14s\n" "np" "base" "optimized" "improvement";
  List.iter
    (fun (r : Scalana.Experiment.speedup_row) ->
      Printf.printf "  %-6d %11.2fx %11.2fx %13.1f%%\n" r.sp_nprocs
        r.base_speedup r.opt_speedup r.improvement_pct)
    rows

let fig12 () =
  section "Fig. 12 + case VI-D.1 — Zeus-MP: backtracking and optimization";
  let pipe = pipeline ~max_np:(min 128 !max_np) "zeusmp" in
  print_string pipe.report;
  Printf.printf "\n  strong-scaling speedup (own baseline at np=4):\n";
  speedup_rows "zeusmp" ~baseline_np:4
    ~scales:[ 4; 16; 64; min 128 !max_np ];
  paper "allreduce at nudt.F:361 detected; backtracking through waitalls";
  paper "at nudt.F:227/269/328 identifies the LOOP at bval3d.F:155;";
  paper "fix: +9.55%% at 128 (Gorgon), +9.96%% at 2,048 (Tianhe-2)"

let fig13 () =
  section "Fig. 13 — Zeus-MP: runtime and storage overhead per tool";
  Printf.printf "  %-6s | %-24s | %-24s\n" "np" "overhead %" "storage";
  Printf.printf "  %-6s | %7s %8s %7s | %8s %8s %7s\n" "" "trace" "callpath"
    "scalana" "trace" "callpath" "scalana";
  List.iter
    (fun (np, ms) ->
      let g k = find_tool ms k in
      let tr = g Scalana.Experiment.Tracing_tool
      and cp = g Scalana.Experiment.Callpath_tool
      and sa = g Scalana.Experiment.Scalana_tool in
      Printf.printf "  %-6d | %7.2f %8.2f %7.2f | %8s %8s %7s\n" np
        tr.overhead_pct cp.overhead_pct sa.overhead_pct
        (human_bytes tr.storage_bytes)
        (human_bytes cp.storage_bytes)
        (human_bytes sa.storage_bytes))
    (sweep "zeusmp");
  paper "ScalAna 1.85%% / HPCToolkit 2.01%% mean overhead; Scalasca 40.89%%";
  paper "at 64 procs; 20 MB (ScalAna) vs 28.26 GB (Scalasca traces)"

let fig14 () =
  section "Fig. 14 + case VI-D.2 — SST: backtracking and optimization";
  let pipe = pipeline ~max_np:(min 32 !max_np) "sst" in
  print_string pipe.report;
  Printf.printf "\n  strong-scaling speedup (own baseline at np=4):\n";
  speedup_rows "sst" ~baseline_np:4 ~scales:[ 4; 8; 16; 32 ];
  paper "allreduce at rankSyncSerialSkip.cc:235 -> waitall at :217 ->";
  paper "LOOP in RequestGenCPU::handleEvent (mirandaCPU.cc:247);";
  paper "fix (array -> map): 1.20x -> 1.56x at 32 procs (+73.12%%)"

let per_vertex_counter name ~label ~metric ~nprocs ~optimized =
  let entry = Scalana_apps.Registry.find name in
  let prog = entry.make ~optimized () in
  let static = Scalana.Static.analyze prog in
  let run = Scalana.Prof.run ~cost:entry.cost static ~nprocs () in
  let vertex =
    List.find
      (fun v ->
        match v.Scalana_psg.Vertex.kind with
        | Scalana_psg.Vertex.Comp { label = Some l; _ } -> String.equal l label
        | _ -> false)
      (Scalana_psg.Psg.find_all Scalana_psg.Vertex.is_comp
         (Scalana.Static.psg static))
  in
  match
    Scalana_profile.Profdata.row run.Scalana.Prof.data
      ~vertex:vertex.Scalana_psg.Vertex.id
  with
  | Some r -> Array.map (Pmu.get metric) r.Scalana_profile.Profdata.pmu
  | None -> Array.make nprocs 0.0

let fig15 () =
  section "Fig. 15 — SST: per-rank TOT_INS of the handleEvent loop (32 procs)";
  let base =
    per_vertex_counter "sst" ~label:"satisfyDependency" ~metric:Pmu.Tot_ins
      ~nprocs:32 ~optimized:false
  in
  let opt =
    per_vertex_counter "sst" ~label:"satisfyDependency" ~metric:Pmu.Tot_ins
      ~nprocs:32 ~optimized:true
  in
  Printf.printf "  original : [%s] max=%.3g spread=%.1fx\n" (bars base)
    (Array.fold_left Float.max 0.0 base)
    (spread base);
  Printf.printf "  optimized: [%s] max=%.3g spread=%.1fx\n" (bars opt)
    (Array.fold_left Float.max 0.0 opt)
    (spread opt);
  let mx b = Array.fold_left Float.max 0.0 b in
  Printf.printf "  TOT_INS reduction: %.2f%%\n"
    (100.0 *. (1.0 -. (mx opt /. mx base)));
  paper "99.92%% TOT_INS reduction, counts balanced after the fix"

let fig16 () =
  section "Fig. 16 — Nekbone: per-rank counters of the dgemm loop (32 procs)";
  let get metric optimized =
    per_vertex_counter "nekbone" ~label:"dgemm" ~metric ~nprocs:32 ~optimized
  in
  let lst = get Pmu.Tot_lst_ins false and lst' = get Pmu.Tot_lst_ins true in
  let cyc = get Pmu.Tot_cyc false and cyc' = get Pmu.Tot_cyc true in
  Printf.printf "  TOT_LST_INS original : [%s] spread=%.2fx\n" (bars lst)
    (spread lst);
  Printf.printf "  TOT_CYC     original : [%s] spread=%.2fx\n" (bars cyc)
    (spread cyc);
  Printf.printf "  TOT_LST_INS optimized: [%s] spread=%.2fx\n" (bars lst')
    (spread lst');
  Printf.printf "  TOT_CYC     optimized: [%s] spread=%.2fx\n" (bars cyc')
    (spread cyc');
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  Printf.printf "  TOT_LST_INS reduction: %.2f%%\n"
    (100.0 *. (1.0 -. (mean lst' /. mean lst)));
  let var a =
    let m = mean a in
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a
    /. float_of_int (Array.length a)
  in
  Printf.printf "  TOT_CYC variance reduction: %.2f%%\n"
    (100.0 *. (1.0 -. (var cyc' /. Float.max (var cyc) 1e-9)));
  Printf.printf "\n  strong-scaling speedup (own baseline at np=4):\n";
  speedup_rows "nekbone" ~baseline_np:4
    ~scales:[ 4; 16; 32; 64; min 128 !max_np ];
  paper "TOT_LST_INS equal across ranks, TOT_CYC diverges; fix: -89.78%%";
  paper "loads, -94.03%% cycle variance; speedup 31.95x -> 51.96x at 64"

(* The paper's Tianhe-2 rows: NPB with 2,048 processes under the ScalAna
   tool only (no cross-tool comparison was possible there either). *)
let tianhe () =
  section "Tianhe-scale — NPB at 2,048 processes under ScalAna";
  Printf.printf "  %-10s %8s %12s %12s
" "Program" "np" "overhead" "storage";
  let os = ref [] and ss = ref [] in
  List.iter
    (fun name ->
      let entry = Scalana_apps.Registry.find name in
      let nprocs = if entry.square_scales then 1024 else 2048 in
      let static = Scalana.Static.analyze (entry.make ()) in
      let run =
        Scalana.Prof.run ~cost:entry.cost ~measure_overhead:true static ~nprocs ()
      in
      let ovh =
        match Scalana.Prof.overhead_percent run with Some p -> p | None -> 0.0
      in
      let bytes = Scalana_profile.Profdata.storage_bytes run.Scalana.Prof.data in
      os := ovh :: !os;
      ss := bytes :: !ss;
      Printf.printf "  %-10s %8d %11.2f%% %12s
" name nprocs ovh
        (human_bytes bytes))
    [ "bt"; "cg"; "ep"; "ft"; "mg"; "sp"; "lu"; "is" ];
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  Printf.printf "  mean overhead: %.2f%%   mean storage: %s
" (mean !os)
    (human_bytes
       (List.fold_left ( + ) 0 !ss / List.length !ss));
  paper "1.73%% mean runtime overhead and 4.72 MB mean storage for the";
  paper "NPB suite with 2,048 processes on Tianhe-2"

(* Critical-path extension: agrees with backtracking on the planted
   pathologies. *)
let critpath () =
  section "Extension — critical-path analysis (zeus-mp, 16 ranks)";
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let prog = entry.make () in
  let static = Scalana.Static.analyze prog in
  let recorder =
    Scalana_profile.Timeline.create ~index:static.index ~nprocs:16 ()
  in
  let cfg =
    Exec.config ~nprocs:16 ~cost:entry.cost
      ~tools:[ Scalana_profile.Timeline.tool recorder ] ()
  in
  ignore (Exec.run ~cfg prog);
  let cp =
    Scalana_detect.Critpath.analyze
      ~psg:(Scalana.Static.psg static)
      (Scalana_profile.Timeline.capture recorder)
  in
  Printf.printf "  critical path: %.3fs over %d segments
" cp.total
    (List.length cp.segments);
  Printf.printf "  covers %.1f%% of the %.3fs run%s
" (100.0 *. cp.share)
    cp.elapsed
    (if cp.dropped > 0 then
       Printf.sprintf " (partial: %d events dropped at the cap)" cp.dropped
     else "");
  List.iter
    (fun (loc, s) -> Printf.printf "  %-44s %8.3fs
" loc s)
    (Scalana_detect.Critpath.top ~n:6 cp);
  note "the hsmoc volume work bounds the runtime at this scale, but the";
  note "quarter-rank boundary updates already sit on the chain — the same";
  note "code backtracking blames for the scaling loss at larger scales"

let all : (string * (unit -> unit)) list =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("fig4", fig4);
    ("fig7", fig7);
    ("fig8", fig8);
    ("table2", table2);
    ("table3", table3);
    ("fig10", fig10);
    ("fig11", fig11);
    ("table4", table4);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("tianhe", tianhe);
    ("critpath", critpath);
  ]
