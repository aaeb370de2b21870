(* Case study VI-D.3: Nekbone.

   The spectral-element CG solver's dgemm loop retires the same
   load/store count on every rank, but some cores serve memory slower
   (heterogeneous cost model), so TOT_CYC diverges and the gather-scatter
   MPI_Waitall absorbs the difference.  The efficient-BLAS fix removes
   ~90% of the loads, which also hides the core-speed variance.

     dune exec examples/nekbone_case.exe                               *)

open Scalana_runtime

let dgemm_counters ~optimized ~nprocs =
  let entry = Scalana_apps.Registry.find "nekbone" in
  let prog = entry.make ~optimized () in
  let static = Scalana.Static.analyze prog in
  let run = Scalana.Prof.run ~cost:entry.cost static ~nprocs () in
  let vertex =
    List.find
      (fun v ->
        match v.Scalana_psg.Vertex.kind with
        | Scalana_psg.Vertex.Comp { label = Some "dgemm"; _ } -> true
        | _ -> false)
      (Scalana_psg.Psg.find_all Scalana_psg.Vertex.is_comp
         (Scalana.Static.psg static))
  in
  match
    Scalana_profile.Profdata.row run.Scalana.Prof.data
      ~vertex:vertex.Scalana_psg.Vertex.id
  with
  | Some r ->
      Array.map
        (fun (p : Pmu.t) -> (p.tot_lst_ins, p.tot_cyc))
        r.Scalana_profile.Profdata.pmu
  | None -> Array.make nprocs (0.0, 0.0)

let () =
  let entry = Scalana_apps.Registry.find "nekbone" in
  let scales = [ 4; 8; 16; 32; 64 ] in
  let pipe = Scalana.Pipeline.run ~cost:entry.cost ~scales (entry.make ()) in
  print_string pipe.report;

  Printf.printf "\n-- PMU evidence (Fig. 16): dgemm loop, 32 ranks --\n";
  let base = dgemm_counters ~optimized:false ~nprocs:32 in
  let opt = dgemm_counters ~optimized:true ~nprocs:32 in
  Printf.printf "%5s %14s %14s | %14s %14s\n" "rank" "LST (base)" "CYC (base)"
    "LST (opt)" "CYC (opt)";
  Array.iteri
    (fun rank (lst, cyc) ->
      if rank < 8 || (cyc > 0.0 && rank mod 8 = 0) then
        let lst', cyc' = opt.(rank) in
        Printf.printf "%5d %14.0f %14.0f | %14.0f %14.0f\n" rank lst cyc lst'
          cyc')
    base;
  let var a =
    let m = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a
    /. float_of_int (Array.length a)
  in
  let cyc_base = Array.map snd base and cyc_opt = Array.map snd opt in
  let lst_base = Array.map fst base and lst_opt = Array.map fst opt in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  Printf.printf "TOT_LST_INS reduction: %.1f%% (paper: 89.78%%)\n"
    (100.0 *. (1.0 -. (mean lst_opt /. mean lst_base)));
  Printf.printf "TOT_CYC variance reduction: %.1f%% (paper: 94.03%%)\n"
    (100.0 *. (1.0 -. (var cyc_opt /. var cyc_base)));

  Printf.printf "\n-- optimization: efficient BLAS --\n";
  let rows =
    Scalana.Experiment.speedup ~cost:entry.cost ~make:entry.make ~baseline_np:4
      ~scales ()
  in
  List.iter
    (fun (r : Scalana.Experiment.speedup_row) ->
      Printf.printf "np=%2d  base %6.2fx  optimized %6.2fx  (+%.1f%%)\n"
        r.sp_nprocs r.base_speedup r.opt_speedup r.improvement_pct)
    rows;
  print_newline ();
  print_endline
    "paper: MPI_Waitall at comm.h:243 non-scalable; root cause the dgemm";
  print_endline
    "LOOP at blas.f:8941; fix lifts 64-proc speedup 31.95x -> 51.96x"
