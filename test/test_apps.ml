(* Tests for the workload suite: every registry program validates, builds
   a PSG, runs deadlock-free at several scales, and the case-study apps
   carry their planted pathologies. *)

open Scalana_mlang
open Scalana_runtime
open Scalana_apps
open Testutil

let test_registry_complete () =
  check_int "eleven programs" 11 (List.length Registry.all);
  Alcotest.(check (slist string compare))
    "names"
    [ "bt"; "cg"; "ep"; "ft"; "mg"; "sp"; "lu"; "is"; "sst"; "nekbone"; "zeusmp" ]
    Registry.names;
  match Registry.find "nosuch" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_all_validate () =
  List.iter
    (fun (e : Registry.entry) ->
      Validate.run_exn (e.make ());
      if e.has_optimized then Validate.run_exn (e.make ~optimized:true ()))
    Registry.all

let test_all_run_small () =
  List.iter
    (fun (e : Registry.entry) ->
      let nprocs = if e.square_scales then 4 else 8 in
      let r = run ~nprocs ~cost:e.cost (e.make ()) in
      check_bool (e.name ^ " finishes") true (r.Exec.elapsed > 0.0);
      check_bool (e.name ^ " has events") true (r.Exec.events > 0))
    Registry.all

let test_scales_helper () =
  let cg = Registry.find "cg" in
  Alcotest.(check (list int))
    "powers of two" [ 4; 8; 16; 32 ]
    (Registry.scales cg ~min_np:4 ~max_np:32);
  let bt = Registry.find "bt" in
  Alcotest.(check (list int))
    "powers of four" [ 4; 16; 64 ]
    (Registry.scales bt ~min_np:4 ~max_np:64)

let test_communication_skeletons () =
  (* static check: the expected MPI mix appears in each program *)
  let has_op name prog op =
    let found =
      List.exists (fun c -> Ast.mpi_name c = op) (mpi_calls prog)
    in
    check_bool (name ^ " has " ^ op) true found
  in
  has_op "cg" ((Registry.find "cg").make ()) "MPI_Sendrecv";
  has_op "cg" ((Registry.find "cg").make ()) "MPI_Allreduce";
  has_op "ft" ((Registry.find "ft").make ()) "MPI_Alltoall";
  has_op "mg" ((Registry.find "mg").make ()) "MPI_Sendrecv";
  has_op "lu" ((Registry.find "lu").make ()) "MPI_Send";
  has_op "lu" ((Registry.find "lu").make ()) "MPI_Recv";
  has_op "is" ((Registry.find "is").make ()) "MPI_Alltoall";
  has_op "zeusmp" ((Registry.find "zeusmp").make ()) "MPI_Waitall";
  has_op "zeusmp" ((Registry.find "zeusmp").make ()) "MPI_Irecv";
  has_op "nekbone" ((Registry.find "nekbone").make ()) "MPI_Waitall";
  has_op "sst" ((Registry.find "sst").make ()) "MPI_Allreduce"

let test_ep_is_compute_bound () =
  let e = Registry.find "ep" in
  let r = run ~nprocs:8 ~cost:e.cost (e.make ()) in
  let comp = Array.fold_left ( +. ) 0.0 r.Exec.comp_seconds in
  let mpi = Array.fold_left ( +. ) 0.0 r.Exec.mpi_seconds in
  check_bool "compute dominates" true (comp > 20.0 *. mpi)

let test_zeusmp_imbalance () =
  let e = Registry.find "zeusmp" in
  let r = run ~nprocs:8 ~cost:e.cost (e.make ()) in
  (* busy ranks (0,4) wait less than idle ranks *)
  check_bool "idle rank waits more" true
    (r.Exec.wait_seconds.(1) > 2.0 *. r.Exec.wait_seconds.(0));
  (* the optimized variant is faster *)
  let ropt = run ~nprocs:8 ~cost:e.cost (e.make ~optimized:true ()) in
  check_bool "optimized faster" true (ropt.Exec.elapsed < r.Exec.elapsed)

let test_sst_ins_imbalance_and_fix () =
  (* Fig. 15 shows the per-rank TOT_INS of the handleEvent loop (the
     paper's observation is at 32 ranks, where the O(np) array scan
     dominates per-event cost) *)
  let e = Registry.find "sst" in
  let ins =
    per_vertex_pmu ~cost:e.cost ~nprocs:32 ~label:"satisfyDependency"
      (e.make ())
    |> Array.map (fun p -> p.Pmu.tot_ins)
  in
  let mx = Array.fold_left Float.max 0.0 ins in
  let mn = Array.fold_left Float.min infinity ins in
  check_bool "ins imbalance" true (mx > 1.5 *. mn);
  let ins' =
    per_vertex_pmu ~cost:e.cost ~nprocs:32 ~label:"satisfyDependency"
      (e.make ~optimized:true ())
    |> Array.map (fun p -> p.Pmu.tot_ins)
  in
  let mx' = Array.fold_left Float.max 0.0 ins' in
  let mn' = Array.fold_left Float.min infinity ins' in
  check_bool "fix balances TOT_INS" true (mx' /. Float.max mn' 1.0 < 1.6);
  (* the fix removes the bulk of the scan instructions (paper: -99.92%) *)
  check_bool "fix reduces TOT_INS" true (mx' < 0.2 *. mx)

let test_nekbone_cyc_variance_and_fix () =
  (* Fig. 16 shows per-rank TOT_LST_INS and TOT_CYC of the dgemm loop *)
  let e = Registry.find "nekbone" in
  let pmu = per_vertex_pmu ~cost:e.cost ~nprocs:32 ~label:"dgemm" (e.make ()) in
  let lst = Array.map (fun p -> p.Pmu.tot_lst_ins) pmu in
  let cyc = Array.map (fun p -> p.Pmu.tot_cyc) pmu in
  let spread a =
    let mx = Array.fold_left Float.max 0.0 a in
    let mn = Array.fold_left Float.min infinity a in
    mx /. mn
  in
  (* Fig. 16: load/store counts equal across ranks, cycles diverge *)
  check_bool "TOT_LST balanced" true (spread lst < 1.3);
  check_bool "TOT_CYC spread" true (spread cyc > 1.3);
  let pmu' =
    per_vertex_pmu ~cost:e.cost ~nprocs:32 ~label:"dgemm"
      (e.make ~optimized:true ())
  in
  let lst' = Array.map (fun p -> p.Pmu.tot_lst_ins) pmu' in
  let cyc' = Array.map (fun p -> p.Pmu.tot_cyc) pmu' in
  (* the BLAS fix removes ~90% of the dgemm loads (paper: -89.78%) *)
  check_bool "TOT_LST drops" true (lst'.(0) < 0.2 *. lst.(0));
  check_bool "CYC variance shrinks" true
    (spread cyc' < 1.0 +. ((spread cyc -. 1.0) /. 2.0))

let test_lu_pipeline_waits () =
  let e = Registry.find "lu" in
  let r = run ~nprocs:8 ~cost:e.cost (e.make ()) in
  (* pipeline fill: downstream ranks wait for the wavefront *)
  check_bool "waits exist" true
    (Array.fold_left ( +. ) 0.0 r.Exec.wait_seconds > 0.0)

let test_bt_sp_square_grids () =
  List.iter
    (fun name ->
      let e = Registry.find name in
      check_bool (name ^ " square") true e.square_scales;
      (* runs at a perfect square *)
      let r = run ~nprocs:16 ~cost:e.cost (e.make ()) in
      check_bool (name ^ " finishes") true (r.Exec.elapsed > 0.0);
      (* and at a non-square count (inactive ranks still join collectives) *)
      let r8 = run ~nprocs:8 ~cost:e.cost (e.make ()) in
      check_bool (name ^ " non-square ok") true (r8.Exec.elapsed > 0.0))
    [ "bt"; "sp" ]

let test_strong_scaling_sanity () =
  (* doubling processes must not slow any app down *)
  List.iter
    (fun name ->
      let e = Registry.find name in
      let t4 = (run ~nprocs:4 ~cost:e.cost (e.make ())).Exec.elapsed in
      let t16 = (run ~nprocs:16 ~cost:e.cost (e.make ())).Exec.elapsed in
      check_bool (name ^ " scales") true (t16 <= t4 *. 1.05))
    [ "cg"; "ep"; "ft"; "mg"; "is"; "lu"; "zeusmp"; "nekbone"; "sst" ]

let test_hypercube_partner_symmetry () =
  (* CG's transpose exchange pairs ranks symmetrically: messages balance *)
  let e = Registry.find "cg" in
  let r = run ~nprocs:16 ~cost:e.cost (e.make ()) in
  (* every rank sends log2(16)=4 messages per conj_grad call *)
  check_bool "messages multiple of ranks" true (r.Exec.messages mod 16 = 0)

let () =
  Alcotest.run "apps"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "all validate" `Quick test_all_validate;
          Alcotest.test_case "all run" `Quick test_all_run_small;
          Alcotest.test_case "scales helper" `Quick test_scales_helper;
        ] );
      ( "skeletons",
        [
          Alcotest.test_case "communication mix" `Quick
            test_communication_skeletons;
          Alcotest.test_case "hypercube symmetry" `Quick
            test_hypercube_partner_symmetry;
          Alcotest.test_case "bt/sp grids" `Quick test_bt_sp_square_grids;
        ] );
      ( "pathologies",
        [
          Alcotest.test_case "ep compute bound" `Quick test_ep_is_compute_bound;
          Alcotest.test_case "zeusmp imbalance" `Quick test_zeusmp_imbalance;
          Alcotest.test_case "sst TOT_INS (fig 15)" `Quick
            test_sst_ins_imbalance_and_fix;
          Alcotest.test_case "nekbone TOT_CYC (fig 16)" `Quick
            test_nekbone_cyc_variance_and_fix;
          Alcotest.test_case "lu pipeline waits" `Quick test_lu_pipeline_waits;
        ] );
      ( "scaling",
        [ Alcotest.test_case "strong scaling sanity" `Quick test_strong_scaling_sanity ] );
    ]
