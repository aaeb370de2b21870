(* Wait-state attribution tests: exact classifications on hand-built
   event streams, a conservation property (attributed time never exceeds
   blocked time, per rank), and the end-to-end cg check — the transpose
   exchange's blocked time lands in the late-sender/late-receiver
   classes and the exported rank trace has one track per rank and a flow
   arrow per matched message. *)

module T = Scalana_profile.Timeline
module W = Scalana_detect.Waitstate
open Testutil

(* --- hand-built timelines --- *)

let mpi ?(deps = []) ?(sends = []) ?coll ~op ~wait () =
  T.Mpi { T.op; wait; deps; send_dests = sends; coll }

let iv ?vertex ~rank ~start ~stop kind =
  {
    T.iv_rank = rank;
    iv_vertex = vertex;
    iv_start = start;
    iv_stop = stop;
    iv_kind = kind;
    iv_merged = 1;
  }

(* Blocked totals are derived from the intervals, as the recorder would
   have accumulated them. *)
let timeline ~nprocs intervals =
  let blocked = Array.make nprocs 0.0 in
  List.iter
    (fun i ->
      match i.T.iv_kind with
      | T.Mpi m -> blocked.(i.T.iv_rank) <- blocked.(i.T.iv_rank) +. m.T.wait
      | T.Compute _ -> ())
    intervals;
  {
    T.nprocs;
    elapsed = List.fold_left (fun a i -> Float.max a i.T.iv_stop) 0.0 intervals;
    intervals = Array.of_list intervals;
    messages = [||];
    blocked;
    dropped = Array.make nprocs 0;
    merged = 0;
  }

let total cls (ws : W.t) = List.assoc cls ws.W.class_totals

let only_entry (ws : W.t) =
  match ws.W.entries with
  | [ e ] -> e
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

(* A receive blocked because its matched send was posted after the
   receive began: the whole wait is a late sender, blamed on the peer. *)
let test_late_sender () =
  let tl =
    timeline ~nprocs:2
      [
        iv ~vertex:7 ~rank:1 ~start:1.0 ~stop:2.0
          (mpi ~op:"MPI_Recv" ~wait:0.9 ~deps:[ (0, 1.5, 2.0) ] ());
      ]
  in
  let ws = W.analyze tl in
  check_float "late-sender gets the wait" 0.9 (total W.Late_sender ws);
  check_float "no late-receiver" 0.0 (total W.Late_receiver ws);
  check_float "no collective" 0.0 (total W.Collective_imbalance ws);
  let e = only_entry ws in
  check_bool "classified late-sender" true (e.W.ws_class = W.Late_sender);
  check_int "one op" 1 e.W.ws_ops;
  check_bool "peer blamed" true (e.W.ws_culprits = [ (0, 0.9) ]);
  check_bool "vertex kept" true (e.W.ws_vertex = Some 7);
  check_float "evidence at the vertex" 0.9
    (List.assoc W.Late_sender (W.vertex_evidence ws ~vertex:7));
  check_float "fully attributed" 1.0 (W.attributed_fraction ws)

(* The send was already posted when the receive began; the residual
   (transfer/drain) wait stays with the late-arriving receiver. *)
let test_late_receiver () =
  let tl =
    timeline ~nprocs:2
      [
        iv ~rank:1 ~start:2.0 ~stop:2.1
          (mpi ~op:"MPI_Recv" ~wait:0.1 ~deps:[ (0, 1.0, 2.1) ] ());
      ]
  in
  let ws = W.analyze tl in
  check_float "late-receiver gets the wait" 0.1 (total W.Late_receiver ws);
  check_float "no late-sender" 0.0 (total W.Late_sender ws);
  let e = only_entry ws in
  check_bool "self blamed" true (e.W.ws_culprits = [ (1, 0.1) ]);
  check_float "fully attributed" 1.0 (W.attributed_fraction ws)

(* A send-side block (no matched incoming message): the destinations
   were not draining — late receiver, blamed on them. *)
let test_send_side_block () =
  let tl =
    timeline ~nprocs:2
      [
        iv ~rank:0 ~start:1.0 ~stop:1.2
          (mpi ~op:"MPI_Send" ~wait:0.2 ~sends:[ 1 ] ());
      ]
  in
  let ws = W.analyze tl in
  check_float "late-receiver gets the wait" 0.2 (total W.Late_receiver ws);
  let e = only_entry ws in
  check_bool "destination blamed" true (e.W.ws_culprits = [ (1, 0.2) ])

(* A perfectly balanced collective: nobody waits, nothing to attribute,
   and the attributed fraction is (vacuously) complete. *)
let test_balanced_collective () =
  let coll r =
    iv ~rank:r ~start:1.0 ~stop:1.1
      (mpi ~op:"MPI_Allreduce" ~wait:0.0
         ~coll:
           { T.coll_arrive = 1.0; coll_start = 1.0; coll_last_rank = 3 }
         ())
  in
  let tl = timeline ~nprocs:4 [ coll 0; coll 1; coll 2; coll 3 ] in
  let ws = W.analyze tl in
  check_int "no entries" 0 (List.length ws.W.entries);
  List.iter
    (fun (_, t) -> check_float "class total zero" 0.0 t)
    ws.W.class_totals;
  check_float "vacuously attributed" 1.0 (W.attributed_fraction ws)

(* An imbalanced collective: early arrivers wait for the last rank,
   which takes the whole blame. *)
let test_imbalanced_collective () =
  let coll r ~arrive ~wait =
    iv ~vertex:3 ~rank:r ~start:arrive ~stop:3.1
      (mpi ~op:"MPI_Allreduce" ~wait
         ~coll:
           { T.coll_arrive = arrive; coll_start = 3.0; coll_last_rank = 3 }
         ())
  in
  let tl =
    timeline ~nprocs:4
      [
        coll 0 ~arrive:1.0 ~wait:2.0;
        coll 1 ~arrive:1.5 ~wait:1.5;
        coll 2 ~arrive:2.0 ~wait:1.0;
        coll 3 ~arrive:3.0 ~wait:0.0;
      ]
  in
  let ws = W.analyze tl in
  check_float "imbalance total" 4.5 (total W.Collective_imbalance ws);
  let e = only_entry ws in
  check_int "three blocked ops" 3 e.W.ws_ops;
  check_bool "last rank takes the blame" true (e.W.ws_culprits = [ (3, 4.5) ]);
  check_float "fully attributed" 1.0 (W.attributed_fraction ws)

(* Blocked time whose interval was truncated away must surface as
   unattributed, never silently vanish. *)
let test_truncation_unattributed () =
  let tl =
    timeline ~nprocs:2
      [
        iv ~rank:0 ~start:1.0 ~stop:2.0
          (mpi ~op:"MPI_Recv" ~wait:0.5 ~deps:[ (1, 1.8, 2.0) ] ());
      ]
  in
  (* simulate a recorder that dropped an interval carrying 0.25s wait *)
  let tl =
    { tl with T.blocked = [| 0.75; 0.0 |]; dropped = [| 1; 0 |] }
  in
  let ws = W.analyze tl in
  check_float "surviving wait attributed" 0.5 (total W.Late_sender ws);
  check_float "lost wait reported" 0.25 ws.W.unattributed;
  check_int "truncation surfaced" 1 ws.W.truncated;
  check_bool "fraction < 1" true (W.attributed_fraction ws < 1.0)

(* --- conservation property ---

   However the stream is shaped, per-rank attributed time never exceeds
   per-rank blocked time, and the class totals account for exactly the
   attributed sum. *)

let stream_arb =
  Prop.list_of ~max_len:24
    (Prop.pair (Prop.int_range 0 3)
       (Prop.pair
          (Prop.pair (Prop.float_range 0.0 10.0) (Prop.float_range 0.0 2.0))
          (Prop.pair (Prop.int_range 0 2) (Prop.float_range (-1.0) 1.0))))

let timeline_of_stream ops =
  let intervals =
    List.map
      (fun (rank, ((start, wait), (kind, peer_delta))) ->
        let stop = start +. wait +. 0.1 in
        let k =
          match kind with
          | 0 ->
              (* p2p with a matched send posted peer_delta around start *)
              mpi ~op:"MPI_Recv" ~wait
                ~deps:[ ((rank + 1) mod 4, start +. peer_delta, stop) ]
                ()
          | 1 -> mpi ~op:"MPI_Send" ~wait ~sends:[ (rank + 1) mod 4 ] ()
          | _ ->
              mpi ~op:"MPI_Allreduce" ~wait
                ~coll:
                  {
                    T.coll_arrive = start;
                    coll_start = start +. wait;
                    coll_last_rank = (rank + 2) mod 4;
                  }
                ()
        in
        iv ~vertex:(kind + 1) ~rank ~start ~stop k)
      ops
  in
  timeline ~nprocs:4 intervals

let prop_attributed_bounded ops =
  let ws = W.analyze (timeline_of_stream ops) in
  let ok = ref true in
  Array.iteri
    (fun r a -> if a > ws.W.rank_blocked.(r) +. 1e-9 then ok := false)
    ws.W.rank_attributed;
  let attributed = Array.fold_left ( +. ) 0.0 ws.W.rank_attributed in
  let classed =
    List.fold_left (fun acc (_, t) -> acc +. t) 0.0 ws.W.class_totals
  in
  !ok
  && Float.abs (attributed -. classed) < 1e-9
  && W.attributed_fraction ws <= 1.0 +. 1e-9

(* --- end to end on cg --- *)

let json_get k j =
  match Scalana_obs.Obs.Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing key %S" k

let json_str = function
  | Scalana_obs.Obs.Json.Str s -> s
  | _ -> Alcotest.fail "expected string"

let json_num = function
  | Scalana_obs.Obs.Json.Num n -> n
  | _ -> Alcotest.fail "expected number"

let test_cg_transpose () =
  let entry = Scalana_apps.Registry.find "cg" in
  let static = Scalana.Static.analyze (entry.make ()) in
  let tl = Scalana.Pipeline.rank_timeline ~cost:entry.cost static ~nprocs:16 in
  let ws = W.analyze tl in
  let blocked = Array.fold_left ( +. ) 0.0 ws.W.rank_blocked in
  check_bool "something blocked" true (blocked > 0.0);
  (* the transpose exchange dominates; >= 90% of all blocked time must
     land in the point-to-point classes (acceptance criterion) *)
  let p2p =
    total W.Late_sender ws +. total W.Late_receiver ws
  in
  check_bool "p2p classes cover >= 90% of blocked time" true
    (p2p >= 0.9 *. blocked);
  check_float "everything attributed" 1.0 (W.attributed_fraction ws);
  (* the dominant entry is the sendrecv transpose, a p2p class *)
  (match ws.W.entries with
  | e :: _ ->
      check_bool "dominant entry is p2p" true
        (e.W.ws_class = W.Late_sender || e.W.ws_class = W.Late_receiver)
  | [] -> Alcotest.fail "no wait-state entries");
  (* exported trace: one track per rank, one flow arrow per matched
     message, start on the sender's track, finish on the receiver's *)
  let doc = T.to_trace_json ~psg:(Scalana.Static.psg static) tl in
  let events =
    match json_get "traceEvents" doc with
    | Scalana_obs.Obs.Json.Arr l -> l
    | _ -> Alcotest.fail "traceEvents not an array"
  in
  let tracks =
    List.filter
      (fun e ->
        json_str (json_get "ph" e) = "M"
        && json_str (json_get "name" e) = "thread_name")
      events
  in
  check_int "one track per rank" tl.T.nprocs (List.length tracks);
  let flow ph =
    List.filter (fun e -> json_str (json_get "ph" e) = ph) events
  in
  let starts = flow "s" and finishes = flow "f" in
  check_int "one flow start per message"
    (Array.length tl.T.messages)
    (List.length starts);
  check_int "flow starts and finishes pair up" (List.length starts)
    (List.length finishes);
  check_bool "messages exist" true (Array.length tl.T.messages > 0);
  let has_start_on tid =
    List.exists (fun e -> int_of_float (json_num (json_get "tid" e)) = tid)
      starts
  and has_finish_on tid =
    List.exists (fun e -> int_of_float (json_num (json_get "tid" e)) = tid)
      finishes
  in
  Array.iter
    (fun (m : T.message) ->
      check_bool "flow start on sender track" true (has_start_on m.T.msg_src);
      check_bool "flow finish on receiver track" true
        (has_finish_on m.T.msg_dst))
    tl.T.messages

(* --- the timeline recorded inside the pipeline's largest run --- *)

module R = Scalana_apps.Registry
module Faults = Scalana_runtime.Faults

let timeline_of (pipe : Scalana.Pipeline.t) =
  match pipe.Scalana.Pipeline.timeline with
  | Some tl -> tl
  | None -> Alcotest.fail "no timeline"

let largest_run (pipe : Scalana.Pipeline.t) =
  let runs = pipe.Scalana.Pipeline.runs in
  List.assoc (List.fold_left (fun m (n, _) -> max m n) 0 runs) runs

let check_same_float msg expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %.9f, got %.9f" msg expected actual

let elapsed (r : Scalana.Prof.run) =
  r.Scalana.Prof.result.Scalana_runtime.Exec.elapsed

let pipeline ?config ?inject ?faults ?elastic name scales =
  let entry = R.find name in
  Scalana.Pipeline.run ?config ~cost:entry.R.cost ?inject ?faults ~scales
    ~timeline:true ?elastic (entry.R.make ())

(* The same timeline as replaying the largest scale on the session's
   static artifact, compared as bytes. *)
let check_equals_replay msg name (pipe : Scalana.Pipeline.t) =
  let tl = timeline_of pipe in
  let replay =
    Scalana.Pipeline.rank_timeline ~cost:(R.find name).R.cost
      pipe.Scalana.Pipeline.static ~nprocs:tl.T.nprocs
  in
  check_bool msg true
    (String.equal (Marshal.to_string tl []) (Marshal.to_string replay []))

(* Injection rules count executions across runs, so a replay after the
   profiled runs would see the delays fall elsewhere; the timeline ends
   when the run the report analyses ended. *)
let test_injection_skew () =
  List.iter
    (fun name ->
      let inject =
        Scalana_runtime.Inject.create
          [ Scalana_runtime.Inject.delay ~ranks:[ 1 ] ~every:3 0.002 ]
      in
      let pipe = pipeline ~inject name [ 4; 8; 16 ] in
      let tl = timeline_of pipe in
      check_int (name ^ " recorded at the largest scale") 16 tl.T.nprocs;
      check_same_float
        (name ^ " timeline ends with the np=16 run")
        (elapsed (List.assoc 16 pipe.Scalana.Pipeline.runs))
        tl.T.elapsed)
    [ "cg"; "zeusmp"; "mg" ]

let test_one_simulation_per_scale () =
  let module Obs = Scalana_obs.Obs in
  Obs.reset ();
  Obs.enable ();
  let runs =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        ignore (pipeline "cg" [ 4; 8; 16 ] : Scalana.Pipeline.t);
        List.length
          (List.filter (fun s -> s.Obs.sp_name = "exec.run") (Obs.spans ())))
  in
  check_int "one exec.run per scale" 3 runs

(* sst resolves indirect calls as it runs: its largest run profiles
   against the graph the smaller scales refined. *)
let test_equals_replay () =
  List.iter
    (fun name ->
      let entry = R.find name in
      List.iter
        (fun max_np ->
          let label = Printf.sprintf "%s up to np=%d" name max_np in
          let pipe = pipeline name (R.scales entry ~min_np:4 ~max_np) in
          check_same_float (label ^ " ends with the largest run")
            (elapsed (largest_run pipe))
            (timeline_of pipe).T.elapsed;
          check_equals_replay (label ^ " = replay") name pipe)
        [ 16; 64 ])
    [ "cg"; "bt"; "zeusmp"; "mg"; "sst" ]

(* An elastic scale is a chain of epoch runs, none of which is the
   whole scale: its timeline is still the replay. *)
let test_elastic_replays () =
  let entry = R.find "cg-shrink" in
  let pipe =
    pipeline ?elastic:entry.R.elastic_plan "cg-shrink"
      (R.scales entry ~min_np:4 ~max_np:16)
  in
  check_equals_replay "elastic timeline = replay" "cg-shrink" pipe

(* A rank killed on the largest scale's first attempt and spared on its
   second: the timeline is the clean retry, not a mix of both. *)
let test_retry_records_final_attempt () =
  let faults =
    Faults.plan ~seed:0 [ Faults.kill_rank ~prob:0.5 ~rank:1 ~after:0.01 () ]
  in
  let kills attempt =
    Faults.kill_time (Faults.arm faults ~nprocs:16 ~attempt) ~rank:1 <> None
  in
  check_bool "attempt 1 draws the kill" true (kills 1);
  check_bool "attempt 2 does not" false (kills 2);
  let config = { Scalana.Config.default with max_run_retries = 1 } in
  let pipe = pipeline ~config ~faults "cg" [ 4; 8; 16 ] in
  let r = largest_run pipe in
  check_int "the largest scale took two attempts" 2 r.Scalana.Prof.attempts;
  check_bool "and its final attempt is clean" false (Scalana.Prof.degraded r);
  check_same_float "timeline ends with the final attempt" (elapsed r)
    (timeline_of pipe).T.elapsed;
  check_equals_replay "timeline = replay of the clean run" "cg" pipe

(* Every attempt loses a rank: the pipeline still finishes, degraded,
   with the wait states of the last attempt. *)
let test_exhausted_retries () =
  let faults =
    Faults.plan [ Faults.kill_rank ~prob:1.0 ~rank:1 ~after:0.01 () ]
  in
  let config = { Scalana.Config.default with max_run_retries = 1 } in
  let pipe = pipeline ~config ~faults "cg" [ 4; 8; 16 ] in
  let r = largest_run pipe in
  check_int "every attempt used" 2 r.Scalana.Prof.attempts;
  check_bool "degraded" true (Scalana.Pipeline.degraded pipe);
  check_same_float "timeline ends with the final attempt" (elapsed r)
    (timeline_of pipe).T.elapsed;
  check_bool "wait-state section" true
    (try
       ignore
         (Str.search_forward
            (Str.regexp_string "-- wait states")
            pipe.Scalana.Pipeline.report 0);
       true
     with Not_found -> false)

let () =
  Alcotest.run "waitstate"
    [
      ( "classes",
        [
          Alcotest.test_case "late sender" `Quick test_late_sender;
          Alcotest.test_case "late receiver" `Quick test_late_receiver;
          Alcotest.test_case "send-side block" `Quick test_send_side_block;
          Alcotest.test_case "balanced collective" `Quick
            test_balanced_collective;
          Alcotest.test_case "imbalanced collective" `Quick
            test_imbalanced_collective;
          Alcotest.test_case "truncation stays visible" `Quick
            test_truncation_unattributed;
        ] );
      ( "properties",
        [
          Prop.test ~count:200 "attributed <= blocked per rank" stream_arb
            prop_attributed_bounded;
        ] );
      ( "end-to-end", [ Alcotest.test_case "cg transpose" `Quick test_cg_transpose ] );
      ( "in-run",
        [
          Alcotest.test_case "injection skew" `Quick test_injection_skew;
          Alcotest.test_case "one simulation per scale" `Quick
            test_one_simulation_per_scale;
          Alcotest.test_case "equals the replay" `Quick test_equals_replay;
          Alcotest.test_case "elastic scales replay" `Quick
            test_elastic_replays;
          Alcotest.test_case "retry records the final attempt" `Quick
            test_retry_records_final_attempt;
          Alcotest.test_case "exhausted retries degrade" `Quick
            test_exhausted_retries;
        ] );
    ]
