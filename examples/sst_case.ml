(* Case study VI-D.2: SST.

   The discrete-event simulator's handleEvent loop scans a
   pendingRequests array whose length grows with the peer count, so
   per-event cost grows with np and differs across ranks.  ScalAna's
   backtracking walks from the exchange allreduce through the waitall to
   that loop; the per-rank TOT_INS counters justify the array -> map fix.

     dune exec examples/sst_case.exe                                   *)

open Scalana_runtime

let per_rank_tot_ins ~optimized ~nprocs =
  let entry = Scalana_apps.Registry.find "sst" in
  let prog = entry.make ~optimized () in
  let static = Scalana.Static.analyze prog in
  let run = Scalana.Prof.run ~cost:entry.cost static ~nprocs () in
  let vertex =
    List.find
      (fun v ->
        match v.Scalana_psg.Vertex.kind with
        | Scalana_psg.Vertex.Comp { label = Some "satisfyDependency"; _ } ->
            true
        | _ -> false)
      (Scalana_psg.Psg.find_all Scalana_psg.Vertex.is_comp
         (Scalana.Static.psg static))
  in
  match
    Scalana_profile.Profdata.row run.Scalana.Prof.data
      ~vertex:vertex.Scalana_psg.Vertex.id
  with
  | Some r ->
      Array.map (fun (p : Pmu.t) -> p.tot_ins) r.Scalana_profile.Profdata.pmu
  | None -> Array.make nprocs 0.0

let () =
  let entry = Scalana_apps.Registry.find "sst" in
  let scales = [ 4; 8; 16; 32 ] in
  let pipe = Scalana.Pipeline.run ~cost:entry.cost ~scales (entry.make ()) in
  print_string pipe.report;

  Printf.printf "\n-- PMU evidence (Fig. 15): per-rank TOT_INS of the loop --\n";
  let base = per_rank_tot_ins ~optimized:false ~nprocs:32 in
  let opt = per_rank_tot_ins ~optimized:true ~nprocs:32 in
  Array.iteri
    (fun rank v ->
      if rank < 8 then
        Printf.printf "rank %2d: original %12.0f   optimized %12.0f\n" rank v
          opt.(rank))
    base;
  let mx a = Array.fold_left Float.max 0.0 a in
  Printf.printf "max TOT_INS: %.3g -> %.3g (%.2f%% reduction)\n" (mx base)
    (mx opt)
    (100.0 *. (1.0 -. (mx opt /. mx base)));

  Printf.printf "\n-- optimization: pendingRequests array -> indexed map --\n";
  let rows =
    Scalana.Experiment.speedup ~cost:entry.cost ~make:entry.make ~baseline_np:4
      ~scales ()
  in
  List.iter
    (fun (r : Scalana.Experiment.speedup_row) ->
      Printf.printf "np=%2d  base %5.2fx  optimized %5.2fx  (+%.1f%%)\n"
        r.sp_nprocs r.base_speedup r.opt_speedup r.improvement_pct)
    rows;
  print_newline ();
  print_endline
    "paper: root cause LOOP in RequestGenCPU::handleEvent (mirandaCPU.cc:247);";
  print_endline
    "fix reduces TOT_INS by 99.92% and lifts 32-proc speedup 1.20x -> 1.56x"
