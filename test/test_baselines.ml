(* Tests for the baseline tools: the Scalasca-like tracer's cost model,
   the wait-state classification and trace file a tracer's post-mortem
   analysis would give (both over the rank timeline), and the
   HPCToolkit-like call-path profiler. *)

open Scalana_mlang
open Scalana_runtime
open Scalana_profile
open Scalana_baselines
open Testutil
module Waitstate = Scalana_detect.Waitstate
module Json = Scalana_obs.Obs.Json

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

(* The program's rank timeline, recorded with no other tool attached. *)
let timeline_of ?config ~nprocs prog =
  let static = Scalana.Static.analyze prog in
  let recorder = Timeline.create ?config ~index:static.index ~nprocs () in
  ignore (run ~nprocs ~tools:[ Timeline.tool recorder ] prog);
  Timeline.capture recorder

(* --- tracer --- *)

let test_tracer_counts_and_bytes () =
  let tr = Tracer.create () in
  let prog = ring_program ~niter:5 () in
  ignore (run ~nprocs:4 ~tools:[ Tracer.tool tr ] prog);
  check_bool "events logged" true (Tracer.n_events tr > 0);
  check_int "bytes = events x 40" (Tracer.n_events tr * 40)
    (Tracer.storage_bytes tr)

(* The run's one event record is the rank timeline: its cap keeps the
   first [max_events] intervals and messages and counts the rest. *)
let test_tracer_truncation () =
  let tl =
    timeline_of ~config:{ Timeline.max_events = 3 } ~nprocs:4
      (ring_program ~niter:5 ())
  in
  check_int "kept only 3" 3
    (Timeline.n_intervals tl + Timeline.n_messages tl);
  check_bool "truncated" true (Timeline.total_dropped tl > 0)

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

(* --- replay: wait-state classification over the rank timeline --- *)

let test_replay_late_sender () =
  let ws = Waitstate.analyze (timeline_of ~nprocs:2 (late_sender_program ())) in
  match ws.Waitstate.entries with
  | [] -> Alcotest.fail "no wait states"
  | top :: _ ->
      check_bool "late sender class" true
        (top.Waitstate.ws_class = Waitstate.Late_sender);
      check_bool "wait positive" true (top.Waitstate.ws_time > 0.001);
      check_bool "rank 0 blamed" true
        (List.mem_assoc 0 top.Waitstate.ws_culprits)

let test_replay_collective_wait () =
  let ws =
    Waitstate.analyze (timeline_of ~nprocs:4 (delayed_barrier_program ()))
  in
  check_bool "collective imbalance blames rank 0" true
    (List.exists
       (fun (e : Waitstate.entry) ->
         e.ws_class = Waitstate.Collective_imbalance
         && List.mem_assoc 0 e.ws_culprits)
       ws.Waitstate.entries);
  (* three of four ranks wait for rank 0 *)
  check_int "waiting ranks" 3
    (Array.fold_left
       (fun n s -> if s > 20e-6 then n + 1 else n)
       0 ws.Waitstate.rank_attributed)

let test_replay_quiet_program () =
  let ws = Waitstate.analyze (timeline_of ~nprocs:4 (ring_program ~niter:3 ())) in
  (* balanced ring: nothing waits appreciably *)
  List.iter
    (fun (e : Waitstate.entry) ->
      check_bool "small waits only" true (e.ws_time < 0.05))
    ws.Waitstate.entries

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


(* --- trace files: the rank timeline's trace_event export --- *)

let exported_trace () =
  let tl = timeline_of ~nprocs:4 (delayed_barrier_program ()) in
  let path = Filename.temp_file "scalana" ".trace.json" in
  Timeline.export_trace ~path tl;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (tl, text)

let test_trace_io_roundtrip () =
  let tl, text = exported_trace () in
  match Json.of_string text with
  | Error msg -> Alcotest.failf "trace does not parse: %s" msg
  | Ok doc ->
      let events =
        match Json.member "traceEvents" doc with
        | Some (Json.Arr l) -> l
        | _ -> Alcotest.fail "no traceEvents array"
      in
      let slices =
        List.filter (fun e -> Json.member "ph" e = Some (Json.Str "X")) events
      in
      check_int "one slice per interval" (Timeline.n_intervals tl)
        (List.length slices)

let test_trace_io_malformed () =
  let _, text = exported_trace () in
  match Json.of_string (String.sub text 0 (String.length text / 2)) with
  | Ok _ -> Alcotest.fail "a trace cut in half parsed"
  | Error _ -> ()

(* --- pin --- *)

(* Table I, Figs. 10, 11 and 13 read the tracer through three numbers
   per run: trace records, trace bytes and the traced run's elapsed
   time.  The digest pins all three over the eleven registry programs
   at 16 and 64 ranks. *)
let expected_tracer_digest = "b335a2d91975bfd3f5ae34040b4048ba"

let test_pin_tracer_cost () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (entry : Scalana_apps.Registry.entry) ->
      List.iter
        (fun nprocs ->
          let tr = Tracer.create () in
          let r =
            run ~nprocs ~cost:entry.cost ~tools:[ Tracer.tool tr ]
              (entry.make ())
          in
          Printf.bprintf buf "%s/%d %d %d %Lx\n" entry.name nprocs
            (Tracer.n_events tr) (Tracer.storage_bytes tr)
            (Int64.bits_of_float r.Exec.elapsed))
        [ 16; 64 ])
    Scalana_apps.Registry.all;
  check_string "tracer cost digest" expected_tracer_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

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
      ( "pin",
        [
          Alcotest.test_case "tracer cost on the registry" `Quick
            test_pin_tracer_cost;
        ] );
    ]
