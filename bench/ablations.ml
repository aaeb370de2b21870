(* Ablation benches for the design choices DESIGN.md calls out:
   aggregation strategy, wait-edge pruning, contraction depth,
   comm-record compression and sampling frequency. *)

open Scalana_profile
open Scalana_detect
open Util

let ablation_aggregate () =
  section "Ablation — aggregation strategy for non-scalable detection";
  let pipe = pipeline ~max_np:32 "zeusmp" in
  let psg = Scalana.Static.psg pipe.static in
  List.iter
    (fun strategy ->
      let findings =
        Nonscalable.detect ~config:{ Nonscalable.strategy } pipe.crossscale
      in
      let labels =
        List.map
          (fun (f : Nonscalable.finding) ->
            Scalana_psg.Vertex.label (Scalana_psg.Psg.vertex psg f.vertex))
          findings
      in
      let bval_found =
        List.exists
          (fun l -> String.length l >= 4 && String.sub l 0 4 = "bval")
          labels
      in
      Printf.printf "  %-12s -> %d findings, finds bval loop: %b  [%s]\n"
        (Aggregate.strategy_name strategy)
        (List.length findings) bval_found
        (String.concat "; " labels))
    [
      Aggregate.Single 0;
      Aggregate.Mean;
      Aggregate.Median;
      Aggregate.Variance_weighted;
      Aggregate.Kmeans 3;
    ];
  note "the boundary loop runs on 1/4 of the ranks: median-based merging";
  note "hides it (median 0), mean/variance/kmeans surface it — the";
  note "trade-off Section IV-A discusses"

let ablation_pruning () =
  section "Ablation — wait-edge pruning in backtracking";
  List.iter
    (fun name ->
      let pipe = pipeline ~max_np:32 name in
      let _, ppg = Scalana_ppg.Crossscale.largest pipe.crossscale in
      let run prune =
        let visited = Hashtbl.create 64 in
        let steps = ref 0 and hops = ref 0 in
        List.iter
          (fun (f : Abnormal.finding) ->
            let rank =
              match f.ranks with
              | r :: _ -> r
              | [] -> Rootcause.start_rank ppg ~vertex:f.vertex
            in
            let path =
              Backtrack.backtrack
                ~config:{ Backtrack.default_config with prune_non_wait = prune }
                ppg ~visited ~start_rank:rank ~start_vertex:f.vertex
            in
            steps := !steps + List.length path;
            List.iter
              (fun (s : Backtrack.step) ->
                match s.via with Backtrack.Comm_dep _ -> incr hops | _ -> ())
              path)
          pipe.analysis.abnormal;
        (!steps, !hops)
      in
      let ps, ph = run true and us, uh = run false in
      Printf.printf
        "  %-8s pruned: %3d steps / %2d comm hops   unpruned: %3d steps / %2d comm hops\n"
        name ps ph us uh)
    [ "zeusmp"; "lu"; "sst" ];
  note "pruning keeps only comm edges that carried a wait, cutting the";
  note "search space and false positives (Section IV-B)"

let ablation_contraction () =
  section "Ablation — MaxLoopDepth contraction sweep (zeus-mp)";
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let prog = entry.make () in
  let locals = Scalana_psg.Intra.build_all prog in
  let full = Scalana_psg.Inter.build ~locals prog in
  Printf.printf "  %-14s %10s %12s\n" "MaxLoopDepth" "#vertices" "memory";
  List.iter
    (fun depth ->
      let c = Scalana_psg.Contract.run ~max_loop_depth:depth full in
      Printf.printf "  %-14d %10d %12s\n" depth
        (Scalana_psg.Psg.n_vertices c.Scalana_psg.Contract.psg)
        (human_bytes (Scalana_psg.Psg.memory_bytes c.Scalana_psg.Contract.psg)))
    [ 0; 1; 2; 4; 10 ];
  Printf.printf "  (uncontracted: %d vertices)\n" (Scalana_psg.Psg.n_vertices full);
  note "deeper bounds keep more loop structure at higher analysis cost;";
  note "the paper uses MaxLoopDepth=10"

let ablation_compression () =
  section "Ablation — graph-guided communication compression (npb-cg)";
  let entry = Scalana_apps.Registry.find "cg" in
  let prog = entry.make () in
  let static = Scalana.Static.analyze prog in
  let run =
    Scalana.Prof.run
      ~config:{ Scalana.Config.default with record_prob = 1.0 }
      ~cost:entry.cost static ~nprocs:32 ()
  in
  let comm = run.Scalana.Prof.data.Profdata.comm in
  Printf.printf "  raw communication records : %d (%s)\n"
    (Commrec.raw_records comm)
    (human_bytes (Commrec.uncompressed_bytes comm));
  Printf.printf "  compressed (graph-guided) : %d p2p + %d coll (%s)\n"
    (Commrec.n_p2p comm) (Commrec.n_coll comm)
    (human_bytes (Commrec.storage_bytes comm));
  let ratio =
    float_of_int (Commrec.uncompressed_bytes comm)
    /. float_of_int (max 1 (Commrec.storage_bytes comm))
  in
  Printf.printf "  compression ratio         : %.0fx\n" ratio;
  note "repeated iterations reuse the same (vertex, peer, tag, size)";
  note "tuple, so records fold (Section III-B2)"

let ablation_sampling () =
  section "Ablation — sampling frequency vs overhead and sample count";
  let entry = Scalana_apps.Registry.find "cg" in
  let prog = entry.make () in
  Printf.printf "  %-8s %12s %12s\n" "freq(Hz)" "overhead" "samples";
  List.iter
    (fun freq ->
      let static = Scalana.Static.analyze prog in
      let config = { Scalana.Config.default with sampling_freq = freq } in
      let run =
        Scalana.Prof.run ~config ~cost:entry.cost ~measure_overhead:true static
          ~nprocs:16 ()
      in
      let ovh =
        match Scalana.Prof.overhead_percent run with Some p -> p | None -> 0.0
      in
      Printf.printf "  %-8.0f %11.2f%% %12d\n" freq ovh
        run.Scalana.Prof.data.Profdata.total_samples)
    [ 50.0; 100.0; 200.0; 400.0; 800.0 ];
  note "the paper fixes 200 Hz (same as HPCToolkit) as the accuracy/";
  note "overhead trade-off"

let all : (string * (unit -> unit)) list =
  [
    ("ablation_aggregate", ablation_aggregate);
    ("ablation_pruning", ablation_pruning);
    ("ablation_contraction", ablation_contraction);
    ("ablation_compression", ablation_compression);
    ("ablation_sampling", ablation_sampling);
  ]
