(* Wait-state attribution tests: exact classifications on hand-built
   event streams, a conservation property (attributed time never exceeds
   blocked time, per rank), and the end-to-end cg check — the transpose
   exchange's blocked time lands in the late-sender/late-receiver
   classes and the exported rank trace has one track per rank and a flow
   arrow per matched message. *)

module T = Scalana_profile.Timeline
module W = Scalana_detect.Waitstate
open Testutil

(* --- hand-built timelines ---

   Recorded through the recorder's own append path, as its MPI-exit
   hook records a call it has resolved to [vertex]. *)

let index =
  lazy (Scalana.Static.analyze (ring_program ())).Scalana.Static.index

let call_of_op op =
  let open Scalana_mlang in
  let none = Expr.Infix.i 0 in
  match op with
  | "MPI_Recv" ->
      Ast.Recv { src = Ast.Any_source; tag = Ast.Any_tag; bytes = none }
  | "MPI_Send" -> Ast.Send { dest = none; tag = none; bytes = none }
  | "MPI_Allreduce" -> Ast.Allreduce { bytes = none }
  | _ -> Alcotest.failf "no call for %s" op

(* [deps] are (peer, post time, arrival), [coll] is (arrival, start,
   last arriving rank) *)
let mpi ?(deps = []) ?(sends = []) ?coll ~op ~wait () ~start ~stop =
  {
    Scalana_runtime.Instrument.call = call_of_op op;
    enter_time = start;
    exit_time = stop;
    wait_seconds = wait;
    deps =
      List.map
        (fun (peer, send_time, arrival_time) ->
          {
            Scalana_runtime.Instrument.peer_rank = peer;
            peer_loc = Scalana_mlang.Loc.none;
            peer_cctx = 0;
            peer_callpath = [];
            dep_tag = 0;
            dep_bytes = 0;
            send_time;
            arrival_time;
          })
        deps;
    sends = List.map (fun dest -> (dest, 0, 0)) sends;
    collective =
      Option.map
        (fun (arrive_time, start_time, last_arrival_rank) ->
          {
            Scalana_runtime.Instrument.coll_seq = 0;
            arrive_time;
            start_time;
            last_arrival_rank;
          })
        coll;
  }

let iv ?vertex ~rank ~start ~stop call = (rank, vertex, call ~start ~stop)

(* The recorder accumulates the blocked totals and the elapsed time. *)
let timeline ?config ~nprocs intervals =
  let r = T.create ?config ~index:(Lazy.force index) ~nprocs () in
  List.iter
    (fun (rank, vertex, info) -> T.append_mpi r ~rank ~vertex info)
    intervals;
  T.capture r

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
         ~coll:(1.0, 1.0, 3) ())
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
         ~coll:(arrive, 3.0, 3) ())
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

(* Entries that tie on wait and vertex are ordered by class, in the
   order the classes are declared, never by hash-table order. *)
let test_tie_order () =
  let tl =
    timeline ~nprocs:4
      [
        iv ~vertex:5 ~rank:0 ~start:1.0 ~stop:1.5
          (mpi ~op:"MPI_Allreduce" ~wait:0.5 ~coll:(1.0, 1.5, 3) ());
        iv ~vertex:5 ~rank:1 ~start:1.0 ~stop:1.5
          (mpi ~op:"MPI_Recv" ~wait:0.5 ~deps:[ (0, 0.5, 1.5) ] ());
        iv ~vertex:5 ~rank:2 ~start:1.0 ~stop:1.5
          (mpi ~op:"MPI_Recv" ~wait:0.5 ~deps:[ (3, 1.4, 1.5) ] ());
      ]
  in
  let ws = W.analyze tl in
  Alcotest.(check (list string))
    "class order"
    (List.map W.class_name
       [ W.Late_sender; W.Late_receiver; W.Collective_imbalance ])
    (List.map (fun (e : W.entry) -> W.class_name e.W.ws_class) ws.W.entries)

(* Blocked time whose interval was truncated away must surface as
   unattributed, never silently vanish. *)
let test_truncation_unattributed () =
  (* a cap of one interval and its message drops the next interval,
     which carried 0.25s of wait *)
  let tl =
    timeline ~config:{ T.max_events = 2 } ~nprocs:2
      [
        iv ~rank:0 ~start:1.0 ~stop:2.0
          (mpi ~op:"MPI_Recv" ~wait:0.5 ~deps:[ (1, 1.8, 2.0) ] ());
        iv ~rank:0 ~start:2.0 ~stop:2.25 (mpi ~op:"MPI_Recv" ~wait:0.25 ());
      ]
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
                ~coll:(start, start +. wait, (rank + 2) mod 4)
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
  check_int "one track per rank" (T.nprocs tl) (List.length tracks);
  let flow ph =
    List.filter (fun e -> json_str (json_get "ph" e) = ph) events
  in
  let starts = flow "s" and finishes = flow "f" in
  check_int "one flow start per message" (T.n_messages tl)
    (List.length starts);
  check_int "flow starts and finishes pair up" (List.length starts)
    (List.length finishes);
  check_bool "messages exist" true (T.n_messages tl > 0);
  let has_start_on tid =
    List.exists (fun e -> int_of_float (json_num (json_get "tid" e)) = tid)
      starts
  and has_finish_on tid =
    List.exists (fun e -> int_of_float (json_num (json_get "tid" e)) = tid)
      finishes
  in
  for m = 0 to T.n_messages tl - 1 do
    check_bool "flow start on sender track" true
      (has_start_on (T.msg_src tl m));
    check_bool "flow finish on receiver track" true
      (has_finish_on (T.msg_dst tl m))
  done

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
      pipe.Scalana.Pipeline.static ~nprocs:(T.nprocs tl)
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
      check_int (name ^ " recorded at the largest scale") 16 (T.nprocs tl);
      check_same_float
        (name ^ " timeline ends with the np=16 run")
        (elapsed (List.assoc 16 pipe.Scalana.Pipeline.runs))
        (T.elapsed tl))
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
            (T.elapsed (timeline_of pipe));
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
  check_bool "and its final attempt is clean" true
    (r.Scalana.Prof.result.Scalana_runtime.Exec.killed_ranks = []
    && r.Scalana.Prof.result.Scalana_runtime.Exec.stranded_ranks = []);
  check_same_float "timeline ends with the final attempt" (elapsed r)
    (T.elapsed (timeline_of pipe));
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
    (T.elapsed (timeline_of pipe));
  check_bool "wait-state section" true
    (try
       ignore
         (Str.search_forward
            (Str.regexp_string "-- wait states")
            pipe.Scalana.Pipeline.report 0);
       true
     with Not_found -> false)

(* A timeline at a smaller profiled scale is set next to the profile of
   its own scale: every "sampled wait at vertex" line of the wait-state
   section is the np=4 PPG's total wait at that entry's vertex. *)
let test_sampled_wait_at_timeline_scale () =
  let entry = R.find "cg" in
  let plain =
    Scalana.Pipeline.run ~cost:entry.R.cost ~scales:[ 4; 8; 16 ]
      (entry.R.make ())
  in
  let static = plain.Scalana.Pipeline.static in
  let timeline =
    Scalana.Pipeline.rank_timeline ~cost:entry.R.cost static ~nprocs:4
  in
  let pipe =
    Scalana.Pipeline.detect_session ~timeline
      {
        Scalana.Artifact.static;
        runs = plain.Scalana.Pipeline.runs;
        issues = [];
      }
  in
  let ppg =
    match
      Scalana_ppg.Crossscale.ppg_at pipe.Scalana.Pipeline.crossscale ~nprocs:4
    with
    | Some ppg -> ppg
    | None -> Alcotest.fail "no np=4 PPG"
  in
  let ws =
    match pipe.Scalana.Pipeline.analysis.Scalana_detect.Rootcause.waitstate with
    | Some ws -> ws
    | None -> Alcotest.fail "no wait-state analysis"
  in
  check_int "the replay is at np=4" 4 ws.W.ws_nprocs;
  let expected =
    List.filteri (fun i _ -> i < 8) ws.W.entries
    |> List.filter_map (fun (e : W.entry) ->
           Option.map
             (fun vid ->
               Printf.sprintf "      sampled wait at vertex: %.6fs"
                 (Scalana_ppg.Ppg.total_wait ppg ~vertex:vid))
             e.W.ws_vertex)
  in
  let actual =
    String.split_on_char '\n' pipe.Scalana.Pipeline.report
    |> List.filter (fun l ->
           String.starts_with ~prefix:"sampled wait" (String.trim l))
  in
  check_bool "some sampled-wait lines" true (expected <> []);
  Alcotest.(check (list string)) "sampled waits of the np=4 PPG" expected actual

(* --- captured timelines and their wait states, pinned by digest ---

   The digests read every field the recorder keeps, in capture order,
   floats by their bits, so they pin the timeline's content and not its
   in-memory layout. *)

let add_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ' '

let add_bits b x =
  Buffer.add_string b (Printf.sprintf "%Lx " (Int64.bits_of_float x))

let add_vertex b v = add_int b (Option.value v ~default:(-1))

let timeline_digest tl =
  let b = Buffer.create 65536 in
  add_int b (T.nprocs tl);
  for i = 0 to T.n_intervals tl - 1 do
    add_int b (T.rank tl i);
    add_vertex b (T.vertex tl i);
    add_bits b (T.start tl i);
    add_bits b (T.stop tl i);
    add_int b (T.merges tl i);
    if not (T.is_mpi tl i) then Buffer.add_string b ("C " ^ T.name tl i ^ " ")
    else begin
      Buffer.add_string b ("M " ^ T.name tl i ^ " ");
      add_bits b (T.wait tl i);
      add_int b (T.n_deps tl i);
      for j = 0 to T.n_deps tl i - 1 do
        let peer, send, arrival = T.dep tl i j in
        add_int b peer;
        add_bits b send;
        add_bits b arrival
      done;
      let dests = T.send_dests tl i in
      add_int b (List.length dests);
      List.iter (add_int b) dests;
      match T.coll tl i with
      | None -> Buffer.add_string b "- "
      | Some (arrive, start, last_rank) ->
          add_bits b arrive;
          add_bits b start;
          add_int b last_rank
    end;
    Buffer.add_char b '\n'
  done;
  for m = 0 to T.n_messages tl - 1 do
    add_int b (T.msg_src tl m);
    add_int b (T.msg_dst tl m);
    add_bits b (T.msg_send_time tl m);
    add_bits b (T.msg_recv_enter tl m);
    add_bits b (T.msg_arrival tl m);
    add_int b (T.msg_tag tl m);
    add_int b (T.msg_bytes tl m);
    add_vertex b (T.msg_vertex tl m);
    Buffer.add_char b '\n'
  done;
  for rank = 0 to T.nprocs tl - 1 do
    add_bits b (T.blocked tl rank)
  done;
  for rank = 0 to T.nprocs tl - 1 do
    add_int b (T.dropped tl rank)
  done;
  add_int b (T.merged tl);
  add_bits b (T.elapsed tl);
  Digest.to_hex (Digest.string (Buffer.contents b))

let waitstate_digest (ws : W.t) =
  let b = Buffer.create 4096 in
  add_int b ws.W.ws_nprocs;
  List.iter
    (fun (e : W.entry) ->
      add_vertex b e.W.ws_vertex;
      Buffer.add_string b (W.class_name e.W.ws_class ^ " ");
      add_bits b e.W.ws_time;
      add_int b e.W.ws_ops;
      List.iter
        (fun (rank, s) ->
          add_int b rank;
          add_bits b s)
        e.W.ws_culprits;
      Buffer.add_char b '\n')
    ws.W.entries;
  List.iter
    (fun (cls, s) ->
      Buffer.add_string b (W.class_name cls ^ " ");
      add_bits b s)
    ws.W.class_totals;
  Array.iter (add_bits b) ws.W.rank_blocked;
  Array.iter (add_bits b) ws.W.rank_attributed;
  add_bits b ws.W.unattributed;
  add_int b ws.W.truncated;
  Digest.to_hex (Digest.string (Buffer.contents b))

let replay name nprocs =
  let entry = R.find name in
  Scalana.Pipeline.rank_timeline ~cost:entry.R.cost
    (Scalana.Static.analyze (entry.R.make ()))
    ~nprocs

(* (program, np, timeline digest, wait-state digest); np=16 and the
   largest wait-states scale, lu where the event cap bites, cg-weak at
   its smallest cg-weak-2k scale *)
let pinned =
  [
    ( "cg",
      16,
      "819e05b5575dacc7222bcc4ce7a2fde5",
      "f215e25f548f3477548e5086298640e4" );
    ( "cg",
      128,
      "397de3c8d55a2574361a7874d5f8cd74",
      "704af93c86d5977b2be70566d7002fca" );
    ( "bt",
      16,
      "0d51ab0cacd9fd83d93b2f04eff69c96",
      "881d8a5f54d30be6b14084a8d79b8c36" );
    ( "bt",
      64,
      "834dfb394a97f607b51d6e269be410d0",
      "b161e9f9be9e432612fbc0421df23bc1" );
    ( "zeusmp",
      16,
      "019a3d621403683d9947a82fc6da2231",
      "6e9ed21105d196e0152573b8f9e90876" );
    ( "zeusmp",
      128,
      "336defc6d9e0e18f8798133553008142",
      "14689031c8adacd81b0fba8cbb3b2366" );
    ( "mg",
      16,
      "39a92aad0da8e8c8dd6bc937dc96bd6f",
      "26ae5f301df4650a5282fa357ac423f7" );
    ( "mg",
      128,
      "db9e48c396c06b5110b0f759ee4529ed",
      "e776357010232030db22cefa5d9f257a" );
    ( "sst",
      16,
      "93e8749043aae6f1454263918ff1a778",
      "bd9c7cd9869be13c8b9b270089d31f66" );
    ( "sst",
      128,
      "6f266e9af26fa9ae3b9a8d23e2983815",
      "07f418d545e41622b3b4ec433fbf9fa9" );
    ( "lu",
      64,
      "edaf7a7d71c63f954bb489cd0c3003e6",
      "cbb179181351550176989ec659a39b03" );
    ( "cg-weak",
      512,
      "c31b8293398c29913550db1562b6d7d8",
      "040fe475c3951c8705317b4591916007" );
  ]

(* zeusmp's captured np=128 timeline holds 1,485,941 live words in
   columns; a record, list cell and boxed floats per interval held
   2,956,365.  The bound is 1.25x the columnar figure. *)
let test_footprint () =
  let words = Obj.reachable_words (Obj.repr (replay "zeusmp" 128)) in
  check_bool
    (Printf.sprintf "%d live words, at most 1,857,426" words)
    true (words <= 1_857_426)

let test_pinned (name, nprocs, timeline, waitstate) () =
  let tl = replay name nprocs in
  check_string "timeline digest" timeline (timeline_digest tl);
  check_string "wait-state digest" waitstate (waitstate_digest (W.analyze tl))

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
          Alcotest.test_case "ties ordered by class" `Quick test_tie_order;
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
          Alcotest.test_case "sampled wait at the timeline's scale" `Quick
            test_sampled_wait_at_timeline_scale;
        ] );
      ( "pinned",
        List.map
          (fun ((name, nprocs, _, _) as case) ->
            Alcotest.test_case
              (Printf.sprintf "%s np=%d" name nprocs)
              `Quick (test_pinned case))
          pinned
        @ [ Alcotest.test_case "zeusmp np=128 footprint" `Quick test_footprint ]
      );
    ]
