(* Bechamel micro-benchmarks: one Test.make per table/figure, timing the
   analysis kernel that regenerates it (the experiment harnesses above
   print the actual rows; these measure how fast the kernels run). *)

open Bechamel
open Toolkit

let make_tests () =
  let zeus = Util.pipeline ~max_np:32 "zeusmp" in
  let psg = Scalana.Static.psg zeus.Scalana.Pipeline.static in
  let _, ppg = Scalana_ppg.Crossscale.largest zeus.crossscale in
  let cg_entry = Scalana_apps.Registry.find "cg" in
  let cg_prog = cg_entry.make () in
  let fig3 = (Scalana_apps.Registry.find "mg").make () in
  let data =
    match zeus.runs with
    | (_, r) :: _ -> r.Scalana.Prof.data
    | [] -> assert false
  in
  [
    Test.make ~name:"table1_storage_accounting"
      (Staged.stage (fun () -> Scalana_profile.Profdata.storage_bytes data));
    Test.make ~name:"fig2_injected_run_np8"
      (Staged.stage (fun () ->
           let inject =
             Scalana_runtime.Inject.create
               [ Scalana_runtime.Inject.delay ~ranks:[ 1 ] 0.001 ]
           in
           let cfg =
             Scalana_runtime.Exec.config ~nprocs:8 ~cost:cg_entry.cost ~inject ()
           in
           (Scalana_runtime.Exec.run ~cfg cg_prog).Scalana_runtime.Exec.elapsed));
    Test.make ~name:"fig4_psg_intra_inter"
      (Staged.stage (fun () ->
           let locals = Scalana_psg.Intra.build_all fig3 in
           Scalana_psg.Psg.n_vertices (Scalana_psg.Inter.build ~locals fig3)));
    Test.make ~name:"fig7_loglog_fits"
      (Staged.stage (fun () ->
           List.iter
             (fun vertex ->
               ignore
                 (Scalana_detect.Nonscalable.evidence
                    Scalana_detect.Aggregate.Mean zeus.crossscale ~vertex))
             (Scalana_ppg.Crossscale.touched_vertices zeus.crossscale)));
    Test.make ~name:"fig8_ppg_build"
      (Staged.stage (fun () -> Scalana_ppg.Ppg.build ~psg data));
    Test.make ~name:"table2_psg_contract"
      (Staged.stage (fun () ->
           let full = Scalana_psg.Inter.build ((Scalana_apps.Registry.find "zeusmp").make ()) in
           Scalana_psg.Psg.n_vertices
             (Scalana_psg.Contract.run full).Scalana_psg.Contract.psg));
    Test.make ~name:"table3_base_compile"
      (Staged.stage (fun () -> Scalana.Static.base_compile ~passes:5 cg_prog));
    Test.make ~name:"fig10_profiled_run_np8"
      (Staged.stage (fun () ->
           let static = Scalana.Static.analyze cg_prog in
           (Scalana.Prof.run ~cost:cg_entry.cost static ~nprocs:8 ())
             .Scalana.Prof.result.Scalana_runtime.Exec.elapsed));
    Test.make ~name:"fig11_tracer_run_np8"
      (Staged.stage (fun () ->
           let tr = Scalana_baselines.Tracer.create () in
           let cfg =
             Scalana_runtime.Exec.config ~nprocs:8 ~cost:cg_entry.cost
               ~tools:[ Scalana_baselines.Tracer.tool tr ] ()
           in
           ignore (Scalana_runtime.Exec.run ~cfg cg_prog);
           Scalana_baselines.Tracer.storage_bytes tr));
    Test.make ~name:"table4_detection"
      (Staged.stage (fun () ->
           Scalana_detect.Rootcause.analyze zeus.crossscale));
    Test.make ~name:"fig12_backtracking"
      (Staged.stage (fun () ->
           match zeus.analysis.nonscalable with
           | f :: _ ->
               let visited = Hashtbl.create 64 in
               let rank =
                 Scalana_detect.Rootcause.start_rank ppg ~vertex:f.vertex
               in
               List.length
                 (Scalana_detect.Backtrack.backtrack ppg ~visited
                    ~start_rank:rank ~start_vertex:f.vertex)
           | [] -> 0));
    Test.make ~name:"fig13_tool_comparison_np8"
      (Staged.stage (fun () ->
           List.length
             (Scalana.Experiment.tool_comparison ~cost:cg_entry.cost cg_prog
                ~nprocs:8)));
    Test.make ~name:"fig14_abnormal_detection"
      (Staged.stage (fun () -> List.length (Scalana_detect.Abnormal.detect ppg)));
    Test.make ~name:"fig15_counter_extraction"
      (Staged.stage (fun () ->
           Scalana_profile.Profdata.touched_vertices data
           |> List.map (fun v ->
                  Option.map
                    (fun (r : Scalana_profile.Profdata.row) -> r.pmu)
                    (Scalana_profile.Profdata.row data ~vertex:v))));
    (* 1 vs N domains over the same end-to-end pipeline: the wall-time
       ratio of these two rows is the multicore speedup *)
    Test.make ~name:"pipeline_parallel_speedup_domains1"
      (Staged.stage (fun () ->
           let config =
             { Scalana.Config.default with analysis_domains = 1 }
           in
           (Scalana.Pipeline.run ~config ~cost:cg_entry.cost
              ~scales:[ 4; 8; 16 ] cg_prog)
             .Scalana.Pipeline.detect_seconds));
    Test.make ~name:"pipeline_parallel_speedup_domains4"
      (Staged.stage (fun () ->
           let config =
             { Scalana.Config.default with analysis_domains = 4 }
           in
           (Scalana.Pipeline.run ~config ~cost:cg_entry.cost
              ~scales:[ 4; 8; 16 ] cg_prog)
             .Scalana.Pipeline.detect_seconds));
    Test.make ~name:"fig16_kmeans_merge"
      (Staged.stage (fun () ->
           List.iter
             (fun vertex ->
               match Scalana_ppg.Ppg.times ppg ~vertex with
               | Some row ->
                   ignore
                     (Scalana_detect.Aggregate.apply
                        (Scalana_detect.Aggregate.Kmeans 3) row)
               | None -> ())
             (Scalana_profile.Profdata.touched_vertices data)));
  ]
  (* the simulator engine's two hot structures, at the scales the
     zero-allocation rework targets: a full ring of posted-recv/send
     matches through the per-rank queues, and a fill+drain of the
     scheduler's ready heap *)
  @ List.concat_map
      (fun np ->
        [
          Test.make ~name:(Printf.sprintf "engine_match_queue_np%d" np)
            (Staged.stage (fun () ->
                 let open Scalana_runtime in
                 let comm = Comm.create ~nprocs:np in
                 let loc = Scalana_mlang.Loc.none in
                 for r = 0 to np - 1 do
                   ignore
                     (Comm.post_recv comm ~rank:r ~src:((r + 1) mod np) ~tag:7
                        ~bytes:64 ~time:0.0 ~loc)
                 done;
                 for r = 0 to np - 1 do
                   ignore
                     (Comm.send comm ~src:r ~dst:((r - 1 + np) mod np) ~tag:7
                        ~bytes:64 ~time:0.0 ~loc ~cctx:0)
                 done;
                 comm.Scalana_runtime.Comm.messages_sent));
          Test.make ~name:(Printf.sprintf "engine_sched_heap_np%d" np)
            (Staged.stage (fun () ->
                 let open Scalana_runtime in
                 let h = Heap.create ~capacity:np () in
                 for r = 0 to np - 1 do
                   Heap.push h (float_of_int ((r * 7) mod 64)) r
                 done;
                 let rec drain n =
                   if Heap.pop_val h >= 0 then drain (n + 1) else n
                 in
                 drain 0));
        ])
      [ 256; 1024; 4096 ]

let run () =
  Util.section "Bechamel micro-benchmarks (one per table/figure kernel)";
  let tests = Test.make_grouped ~name:"scalana" (make_tests ()) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let instance = Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      let ns =
        match Analyze.OLS.estimates r with
        | Some (t :: _) -> t
        | _ -> nan
      in
      Printf.printf "  %-40s %12.1f ns/run\n" name ns)
    (List.sort compare rows)
