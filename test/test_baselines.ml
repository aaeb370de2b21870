(* Tests for the baseline tools: the Scalasca-like tracer (with wait-state
   replay) and the HPCToolkit-like call-path profiler. *)

open Scalana_mlang
open Scalana_runtime
open Scalana_baselines
open Testutil

let delayed_barrier_program ?(work = 60_000_000) () =
  let open Expr.Infix in
  let b = Builder.create ~file:"db.mmp" ~name:"db" () in
  Builder.func b "main" (fun () ->
      [
        Builder.loop b ~label:"steps" ~var:"s" ~count:(i 5) (fun () ->
            [
              Builder.branch b
                ~cond:(rank = i 0)
                (fun () ->
                  [
                    Builder.comp b ~label:"slow_loop" ~flops:(i work)
                      ~mem:(i work / i 2) ();
                  ]);
              Builder.comp b ~label:"balanced" ~flops:(i 1_000_000)
                ~mem:(i 500_000) ();
              Builder.barrier b;
            ]);
      ]);
  Builder.program b

let late_sender_program () =
  let open Expr.Infix in
  let b = Builder.create ~file:"ls.mmp" ~name:"ls" () in
  Builder.func b "main" (fun () ->
      [
        Builder.branch b
          ~cond:(rank = i 0)
          ~else_:(fun () ->
            [ Builder.recv b ~src:(i 0) ~tag:(i 1) ~bytes:(i 64) () ])
          (fun () ->
            [
              Builder.comp b ~label:"late" ~flops:(i 50_000_000)
                ~mem:(i 20_000_000) ();
              Builder.send b ~dest:(i 1) ~tag:(i 1) ~bytes:(i 64) ();
            ]);
      ]);
  Builder.program b

(* --- tracer --- *)

let test_tracer_counts_and_bytes () =
  let tr = Tracer.create () in
  let prog = ring_program ~niter:5 () in
  ignore (run ~nprocs:4 ~tools:[ Tracer.tool tr ] prog);
  check_bool "events logged" true (Tracer.n_events tr > 0);
  check_int "bytes = events x 40" (Tracer.n_events tr * 40)
    (Tracer.storage_bytes tr);
  check_bool "not truncated" true (not (Tracer.truncated tr))

let test_tracer_truncation () =
  let config = { Tracer.default_config with keep_limit = 3 } in
  let tr = Tracer.create ~config () in
  let prog = ring_program ~niter:5 () in
  ignore (run ~nprocs:4 ~tools:[ Tracer.tool tr ] prog);
  check_bool "truncated" true (Tracer.truncated tr);
  check_int "kept only 3" 3 (List.length (Tracer.events tr))

let test_tracer_sub_regions () =
  (* a bigger computation produces more traced sub-regions (bytes) *)
  let run_with work =
    let tr = Tracer.create () in
    ignore (run ~nprocs:2 ~tools:[ Tracer.tool tr ] (ring_program ~niter:2 ~work ()));
    Tracer.storage_bytes tr
  in
  check_bool "storage grows with work" true
    (run_with 10_000_000 > run_with 10_000)

let test_tracer_overhead_charged () =
  let prog = ring_program ~niter:20 ~work:2_000_000 () in
  let bare = run ~nprocs:4 prog in
  let tr = Tracer.create () in
  let traced = run ~nprocs:4 ~tools:[ Tracer.tool tr ] prog in
  check_bool "tracing slows the run" true
    (traced.Exec.elapsed > bare.Exec.elapsed)

(* --- replay --- *)

let test_replay_late_sender () =
  let tr = Tracer.create () in
  ignore (run ~nprocs:2 ~tools:[ Tracer.tool tr ] (late_sender_program ()));
  let states = Replay.analyze (Tracer.events tr) in
  check_bool "found states" true (states <> []);
  let top = List.hd states in
  check_bool "late sender class" true (top.Replay.ws_class = Replay.Late_sender);
  check_bool "wait positive" true (top.Replay.total_wait > 0.001)

let test_replay_collective_wait () =
  let tr = Tracer.create () in
  ignore (run ~nprocs:4 ~tools:[ Tracer.tool tr ] (delayed_barrier_program ()));
  let states = Replay.analyze (Tracer.events tr) in
  let colls =
    List.filter
      (fun ws -> ws.Replay.ws_class = Replay.Wait_at_collective)
      states
  in
  check_bool "collective waits found" true (colls <> []);
  let ws = List.hd colls in
  (* three of four ranks wait for rank 0 *)
  check_int "waiting ranks" 3 (List.length ws.Replay.ranks)

let test_replay_quiet_program () =
  let tr = Tracer.create () in
  ignore (run ~nprocs:4 ~tools:[ Tracer.tool tr ] (ring_program ~niter:3 ()));
  let states = Replay.report (Tracer.events tr) ~top:5 in
  (* balanced ring: nothing waits appreciably *)
  List.iter
    (fun ws ->
      check_bool "small waits only" true (ws.Replay.total_wait < 0.05))
    states

(* --- cct / callprof --- *)

let test_cct_nodes_and_merge () =
  let cp = Callprof.create ~nprocs:4 () in
  let prog = delayed_barrier_program () in
  ignore (run ~nprocs:4 ~tools:[ Callprof.tool cp ] prog);
  let cct = Callprof.cct cp in
  check_bool "nodes exist" true (Cct.n_nodes cct > 0);
  check_int "storage" (Cct.n_nodes cct * Cct.bytes_per_node)
    (Cct.storage_bytes cct);
  let merged = Cct.merge cct in
  check_bool "merged nonempty" true (merged <> []);
  (* merged entries never report more ranks than exist *)
  List.iter
    (fun (m : Cct.merged) ->
      check_bool "ranks bounded" true (m.Cct.m_ranks >= 1 && m.Cct.m_ranks <= 4))
    merged

let test_callprof_finds_bottleneck_points () =
  let cp = Callprof.create ~nprocs:4 () in
  let prog = delayed_barrier_program () in
  ignore (run ~nprocs:4 ~tools:[ Callprof.tool cp ] prog);
  let spots = Callprof.hotspots ~top:5 cp in
  check_bool "hotspots found" true (spots <> []);
  (* the slow loop and the barrier both appear: symptoms, no causality *)
  let time_of_mpi =
    List.exists (fun (h : Callprof.hotspot) -> h.hs_is_mpi) spots
  in
  let has_comp =
    List.exists (fun (h : Callprof.hotspot) -> not h.hs_is_mpi) spots
  in
  check_bool "MPI symptom listed" true time_of_mpi;
  check_bool "compute point listed" true has_comp;
  (* imbalance of the rank-0-only loop is visible *)
  let imbalanced =
    List.exists (fun (h : Callprof.hotspot) -> h.hs_imbalance > 2.0) spots
  in
  check_bool "imbalance surfaced" true imbalanced

let test_callprof_overhead_charged () =
  let prog = ring_program ~niter:20 ~work:2_000_000 () in
  let bare = run ~nprocs:4 prog in
  let cp = Callprof.create ~nprocs:4 () in
  let profiled = run ~nprocs:4 ~tools:[ Callprof.tool cp ] prog in
  check_bool "profiling slows the run" true
    (profiled.Exec.elapsed > bare.Exec.elapsed)

(* --- cross-tool ordering (Table I property) --- *)

let test_overhead_and_storage_ordering () =
  let entry = Scalana_apps.Registry.find "cg" in
  let prog = entry.make () in
  let ms = Scalana.Experiment.tool_comparison ~cost:entry.cost prog ~nprocs:16 in
  let find k =
    List.find (fun (m : Scalana.Experiment.measurement) -> m.tool = k) ms
  in
  let tr = find Scalana.Experiment.Tracing_tool in
  let cp = find Scalana.Experiment.Callpath_tool in
  let sa = find Scalana.Experiment.Scalana_tool in
  check_bool "tracing storage dominates" true
    (tr.storage_bytes > 10 * cp.storage_bytes
    && tr.storage_bytes > 10 * sa.storage_bytes);
  check_bool "tracing overhead largest" true
    (tr.overhead_pct > cp.overhead_pct && tr.overhead_pct > sa.overhead_pct);
  check_bool "scalana cheapest" true (sa.overhead_pct <= cp.overhead_pct)


(* --- trace files --- *)

let test_trace_io_roundtrip () =
  let tr = Tracer.create () in
  ignore (run ~nprocs:4 ~tools:[ Tracer.tool tr ] (delayed_barrier_program ()));
  let events = Tracer.events tr in
  let path = Filename.temp_file "scalana" ".trace" in
  Trace_io.save ~path events;
  let loaded = Trace_io.load ~path in
  check_int "same count" (List.length events) (List.length loaded);
  (* replay gives identical wait states on the reloaded trace *)
  let ws1 = Replay.analyze events and ws2 = Replay.analyze loaded in
  check_int "same wait states" (List.length ws1) (List.length ws2);
  List.iter2
    (fun a b ->
      check_string "same loc" (Loc.to_string a.Replay.ws_loc)
        (Loc.to_string b.Replay.ws_loc);
      Testutil.close "same wait" a.Replay.total_wait b.Replay.total_wait)
    ws1 ws2;
  (* and the critical path agrees too *)
  let cp1 = Scalana_detect.Critpath.analyze events in
  let cp2 = Scalana_detect.Critpath.analyze loaded in
  Testutil.close ~eps:1e-6 "same critical path" cp1.Scalana_detect.Critpath.total
    cp2.Scalana_detect.Critpath.total

let test_trace_io_malformed () =
  let path = Filename.temp_file "scalana" ".trace" in
  let oc = open_out path in
  output_string oc "C\t0\tnot_a_float\t0.1\tx:1\t-\tfoo\n";
  close_out oc;
  match Trace_io.load ~path with
  | _ -> Alcotest.fail "expected Malformed"
  | exception Trace_io.Malformed { line_no = 1; _ } -> ()

(* A non-positive or non-finite frequency is refused up front: its
   sampling period never reaches an interval's end. *)
let test_callprof_rejects_bad_freq () =
  List.iter
    (fun freq ->
      match
        Callprof.create
          ~config:{ Callprof.default_config with freq }
          ~nprocs:2 ()
      with
      | _ -> Alcotest.failf "freq %g accepted" freq
      | exception Invalid_argument _ -> ())
    [ -5.0; 0.0; Float.nan; Float.infinity ]

let () =
  Alcotest.run "baselines"
    [
      ( "tracer",
        [
          Alcotest.test_case "counts and bytes" `Quick
            test_tracer_counts_and_bytes;
          Alcotest.test_case "truncation" `Quick test_tracer_truncation;
          Alcotest.test_case "sub-region volume" `Quick test_tracer_sub_regions;
          Alcotest.test_case "overhead charged" `Quick
            test_tracer_overhead_charged;
        ] );
      ( "replay",
        [
          Alcotest.test_case "late sender" `Quick test_replay_late_sender;
          Alcotest.test_case "wait at collective" `Quick
            test_replay_collective_wait;
          Alcotest.test_case "quiet program" `Quick test_replay_quiet_program;
        ] );
      ( "callprof",
        [
          Alcotest.test_case "cct nodes and merge" `Quick
            test_cct_nodes_and_merge;
          Alcotest.test_case "bottleneck points, no causality" `Quick
            test_callprof_finds_bottleneck_points;
          Alcotest.test_case "overhead charged" `Quick
            test_callprof_overhead_charged;
          Alcotest.test_case "rejects bad frequencies" `Quick
            test_callprof_rejects_bad_freq;
        ] );
      ( "trace-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "malformed input" `Quick test_trace_io_malformed;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "Table I ordering" `Quick
            test_overhead_and_storage_ordering;
        ] );
    ]
