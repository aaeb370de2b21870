(* Tests for the self-observability layer: span nesting and ordering
   invariants, per-domain buffer merge under the pool, exporter JSON
   shape, and the metrics registry. *)

open Scalana_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every test owns the global collector: enable() resets, and we leave
   it disabled so the other suites see the default-off behaviour. *)
let with_obs f =
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) f

(* --- disabled-by-default inertness --- *)

let test_disabled_inert () =
  Obs.reset ();
  check_bool "off by default" false (Obs.enabled ());
  check_int "with_span passes value through" 42
    (Obs.with_span "never" (fun () -> 42));
  let sp = Obs.start "never" in
  Obs.finish sp;
  Obs.Metrics.incr "never.counter";
  Obs.Metrics.set_gauge "never.gauge" 1.0;
  Obs.Metrics.observe "never.histo" 1.0;
  Alcotest.(check (float 0.0)) "clock parked" 0.0 (Obs.now ());
  check_int "no spans recorded" 0 (List.length (Obs.spans ()));
  let s = Obs.Metrics.snapshot () in
  check_int "no counters" 0 (List.length s.Obs.Metrics.counters);
  check_int "no gauges" 0 (List.length s.Obs.Metrics.gauges);
  check_int "no histograms" 0 (List.length s.Obs.Metrics.histograms)

(* --- span nesting and ordering --- *)

let test_span_nesting () =
  with_obs @@ fun () ->
  Obs.with_span "outer" (fun () ->
      Obs.with_span "inner1" (fun () -> ());
      Obs.with_span "inner2" (fun () ->
          Obs.with_span "leaf" (fun () -> ())));
  let sps = Obs.spans () in
  check_int "four spans" 4 (List.length sps);
  let find name = List.find (fun sp -> sp.Obs.sp_name = name) sps in
  let outer = find "outer"
  and inner1 = find "inner1"
  and inner2 = find "inner2"
  and leaf = find "leaf" in
  check_int "outer top-level" 0 outer.Obs.sp_depth;
  check_int "inner1 nested" 1 inner1.Obs.sp_depth;
  check_int "inner2 nested" 1 inner2.Obs.sp_depth;
  check_int "leaf doubly nested" 2 leaf.Obs.sp_depth;
  let within child parent =
    parent.Obs.sp_start <= child.Obs.sp_start
    && child.Obs.sp_stop <= parent.Obs.sp_stop
  in
  check_bool "inner1 within outer" true (within inner1 outer);
  check_bool "inner2 within outer" true (within inner2 outer);
  check_bool "leaf within inner2" true (within leaf inner2);
  check_bool "inner1 before inner2" true
    (inner1.Obs.sp_seq < inner2.Obs.sp_seq);
  (* merged stream is sorted by start time *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Obs.sp_start <= b.Obs.sp_start && sorted rest
    | _ -> true
  in
  check_bool "sorted by start" true (sorted sps);
  (* all on the calling domain here *)
  List.iter (fun sp -> check_int "single tid" outer.Obs.sp_tid sp.Obs.sp_tid) sps

let test_span_args_and_exceptions () =
  with_obs @@ fun () ->
  (try
     Obs.with_span ~args:[ ("k", "v") ] "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  let sp = Obs.start ~args:[ ("a", "1") ] "two_sided" in
  Obs.finish ~args:[ ("b", "2") ] sp;
  let find name = List.find (fun s -> s.Obs.sp_name = name) (Obs.spans ()) in
  check_bool "span closed on exception" true
    ((find "boom").Obs.sp_stop >= (find "boom").Obs.sp_start);
  check_string "start arg kept" "1"
    (List.assoc "a" (find "two_sided").Obs.sp_args);
  check_string "finish arg appended" "2"
    (List.assoc "b" (find "two_sided").Obs.sp_args)

(* Stack discipline per domain: in open (seq) order, a span of depth
   [d > 0] must sit inside the latest earlier span of depth [d - 1] on
   the same domain.  Violations would mean the per-domain buffers were
   corrupted by interleaving. *)
let assert_well_nested sps =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let l = try Hashtbl.find by_tid sp.Obs.sp_tid with Not_found -> [] in
      Hashtbl.replace by_tid sp.Obs.sp_tid (sp :: l))
    sps;
  Hashtbl.iter
    (fun tid l ->
      let l =
        List.sort (fun a b -> compare a.Obs.sp_seq b.Obs.sp_seq) l
      in
      (* seq values unique per domain *)
      let seqs = List.map (fun sp -> sp.Obs.sp_seq) l in
      check_int
        (Printf.sprintf "tid %d: unique seqs" tid)
        (List.length seqs)
        (List.length (List.sort_uniq compare seqs));
      let stack = ref [] in
      List.iter
        (fun sp ->
          while
            match !stack with
            | top :: _ -> top.Obs.sp_depth >= sp.Obs.sp_depth
            | [] -> false
          do
            stack := List.tl !stack
          done;
          (match !stack with
          | parent :: _ when sp.Obs.sp_depth > 0 ->
              check_int
                (Printf.sprintf "tid %d: parent depth" tid)
                (sp.Obs.sp_depth - 1) parent.Obs.sp_depth;
              check_bool
                (Printf.sprintf "tid %d: child inside parent" tid)
                true
                (parent.Obs.sp_start <= sp.Obs.sp_start
                && sp.Obs.sp_stop <= parent.Obs.sp_stop)
          | [] when sp.Obs.sp_depth > 0 ->
              Alcotest.failf "tid %d: depth %d span with no parent" tid
                sp.Obs.sp_depth
          | _ -> ());
          stack := sp :: !stack)
        l)
    by_tid

let test_pool_merge () =
  with_obs @@ fun () ->
  let pool = Scalana_pool.Pool.create ~size:4 () in
  let items = List.init 32 Fun.id in
  let out =
    Scalana_pool.Pool.parallel_map ~pool
      (fun i ->
        Obs.with_span ~args:[ ("i", string_of_int i) ] "work" (fun () -> i * i))
      items
  in
  Scalana_pool.Pool.shutdown pool;
  Alcotest.(check (list int))
    "map order preserved"
    (List.map (fun i -> i * i) items)
    out;
  let sps = Obs.spans () in
  let count name =
    List.length (List.filter (fun sp -> sp.Obs.sp_name = name) sps)
  in
  check_int "all work spans survive the merge" 32 (count "work");
  check_int "one parallel_map span" 1 (count "pool.parallel_map");
  check_bool "pool tasks traced" true (count "pool.task" > 0);
  assert_well_nested sps;
  (* every work span sits inside some pool.task interval on its domain *)
  let tasks = List.filter (fun sp -> sp.Obs.sp_name = "pool.task") sps in
  List.iter
    (fun w ->
      if w.Obs.sp_name = "work" then
        check_bool "work inside a task" true
          (List.exists
             (fun t ->
               t.Obs.sp_tid = w.Obs.sp_tid
               && t.Obs.sp_start <= w.Obs.sp_start
               && w.Obs.sp_stop <= t.Obs.sp_stop)
             tasks))
    sps

(* --- exporters --- *)

let num = function Obs.Json.Num n -> n | _ -> Alcotest.fail "expected number"
let str = function Obs.Json.Str s -> s | _ -> Alcotest.fail "expected string"

let get k j =
  match Obs.Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing key %S" k

let test_trace_export_matches () =
  with_obs @@ fun () ->
  Obs.with_span "outer" (fun () ->
      Obs.with_span ~args:[ ("bytes", "128") ] "inner" (fun () -> ()));
  let sps = Obs.spans () in
  (* the document survives a print/parse round-trip *)
  let doc =
    match Obs.Json.of_string (Obs.Json.to_string (Obs.trace_json ())) with
    | Ok d -> d
    | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  in
  let events =
    match get "traceEvents" doc with
    | Obs.Json.Arr l -> l
    | _ -> Alcotest.fail "traceEvents not an array"
  in
  let xs =
    List.filter (fun e -> str (get "ph" e) = "X") events
  in
  check_int "one X event per span" (List.length sps) (List.length xs);
  check_bool "thread metadata present" true
    (List.exists
       (fun e ->
         str (get "ph" e) = "M" && str (get "name" e) = "thread_name")
       events);
  let find name =
    List.find (fun e -> str (get "name" e) = name) xs
  in
  let outer = find "outer" and inner = find "inner" in
  (* microsecond timestamps reproduce the span tree (1µs slack for the
     printed-float round-trip) *)
  let ts e = num (get "ts" e) and dur e = num (get "dur" e) in
  check_bool "inner starts after outer" true (ts inner >= ts outer -. 1.0);
  check_bool "inner ends before outer" true
    (ts inner +. dur inner <= ts outer +. dur outer +. 1.0);
  check_string "args exported" "128" (str (get "bytes" (get "args" inner)));
  List.iter
    (fun e ->
      check_string "category" "scalana" (str (get "cat" e));
      check_bool "nonnegative duration" true (dur e >= 0.0))
    xs

let test_metrics_registry () =
  with_obs @@ fun () ->
  Obs.Metrics.incr "c";
  Obs.Metrics.incr ~by:5 "c";
  Obs.Metrics.set_gauge "g" 1.5;
  Obs.Metrics.set_gauge "g" 2.5;
  Obs.Metrics.observe "h" 0.5e-6;
  Obs.Metrics.observe "h" 2.0;
  Obs.Metrics.observe "h" 100.0;
  let s = Obs.Metrics.snapshot () in
  check_int "counter accumulates" 6 (List.assoc "c" s.Obs.Metrics.counters);
  Alcotest.(check (float 0.0)) "gauge last write wins" 2.5
    (List.assoc "g" s.Obs.Metrics.gauges);
  let h = List.assoc "h" s.Obs.Metrics.histograms in
  check_int "histo count" 3 h.Obs.Metrics.h_count;
  Alcotest.(check (float 1e-9)) "histo sum" 102.0000005 h.Obs.Metrics.h_sum;
  Alcotest.(check (float 0.0)) "histo min" 0.5e-6 h.Obs.Metrics.h_min;
  Alcotest.(check (float 0.0)) "histo max" 100.0 h.Obs.Metrics.h_max;
  check_int "bucket layout"
    (Array.length Obs.Metrics.bucket_bounds + 1)
    (Array.length h.Obs.Metrics.h_buckets);
  check_int "buckets partition the observations" h.Obs.Metrics.h_count
    (Array.fold_left ( + ) 0 h.Obs.Metrics.h_buckets);
  check_int "overflow band used" 1
    h.Obs.Metrics.h_buckets.(Array.length Obs.Metrics.bucket_bounds);
  (* the flat export parses and carries the same counter *)
  let doc =
    match Obs.Json.of_string (Obs.Json.to_string (Obs.metrics_json ())) with
    | Ok d -> d
    | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  in
  check_int "counter exported" 6 (int_of_float (num (get "c" (get "counters" doc))))

let test_phase_summary () =
  with_obs @@ fun () ->
  Obs.with_span "a" (fun () -> ());
  Obs.with_span "a" (fun () -> ());
  Obs.with_span "b" (fun () -> ());
  let summary = Obs.phase_summary () in
  check_int "two phases" 2 (List.length summary);
  let calls name =
    let _, c, _ =
      List.find (fun (n, _, _) -> String.equal n name) summary
    in
    c
  in
  check_int "a called twice" 2 (calls "a");
  check_int "b called once" 1 (calls "b");
  let rec sorted_desc = function
    | (_, _, t1) :: ((_, _, t2) :: _ as rest) -> t1 >= t2 && sorted_desc rest
    | _ -> true
  in
  check_bool "sorted by total desc" true (sorted_desc summary)

(* --- flow events --- *)

(* The pool draws one flow arrow per task, enqueue -> execution; start
   and finish points must pair up by id, in order. *)
let test_pool_flows () =
  with_obs @@ fun () ->
  let pool = Scalana_pool.Pool.create ~size:3 () in
  let n = 8 in
  ignore
    (Scalana_pool.Pool.parallel_map ~pool (fun i -> i) (List.init n Fun.id));
  Scalana_pool.Pool.shutdown pool;
  let fls = Obs.flows () in
  let starts = List.filter (fun f -> not f.Obs.fl_end) fls in
  let finishes = List.filter (fun f -> f.Obs.fl_end) fls in
  check_int "one start per task" n (List.length starts);
  check_int "one finish per task" n (List.length finishes);
  let ids l = List.sort_uniq compare (List.map (fun f -> f.Obs.fl_id) l) in
  check_bool "ids pair up" true (ids starts = ids finishes);
  check_int "ids unique" n (List.length (ids starts));
  List.iter
    (fun s ->
      let f = List.find (fun f -> f.Obs.fl_id = s.Obs.fl_id) finishes in
      check_bool "start before finish" true (s.Obs.fl_time <= f.Obs.fl_time))
    starts;
  (* the trace document carries them as "s"/"f" events with bp=e *)
  let doc =
    match Obs.Json.of_string (Obs.Json.to_string (Obs.trace_json ())) with
    | Ok d -> d
    | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  in
  let events =
    match get "traceEvents" doc with
    | Obs.Json.Arr l -> l
    | _ -> Alcotest.fail "traceEvents not an array"
  in
  let ph p = List.filter (fun e -> str (get "ph" e) = p) events in
  check_int "s events exported" n (List.length (ph "s"));
  check_int "f events exported" n (List.length (ph "f"));
  List.iter
    (fun e -> check_string "binding point on finish" "e" (str (get "bp" e)))
    (ph "f")

(* A two-rank timeline holding one receive on rank 1 over [1, 2],
   matched to a send rank 0 posted at 1.5, recorded through the
   recorder's append path. *)
let recv_timeline ~wait ~vertex =
  let module Tl = Scalana_profile.Timeline in
  let module I = Scalana_runtime.Instrument in
  let index =
    (Scalana.Static.analyze (Testutil.ring_program ())).Scalana.Static.index
  in
  let r = Tl.create ~index ~nprocs:2 () in
  Tl.append_mpi r ~rank:1 ~vertex
    {
      I.call =
        Scalana_mlang.Ast.Recv
          {
            src = Scalana_mlang.Ast.Any_source;
            tag = Scalana_mlang.Ast.Any_tag;
            bytes = Scalana_mlang.Expr.Infix.i 64;
          };
      enter_time = 1.0;
      exit_time = 2.0;
      wait_seconds = wait;
      deps =
        [
          {
            I.peer_rank = 0;
            peer_loc = Scalana_mlang.Loc.none;
            peer_cctx = 0;
            peer_callpath = [];
            dep_tag = 5;
            dep_bytes = 64;
            send_time = 1.5;
            arrival_time = 2.0;
          };
        ];
      sends = [];
      collective = None;
    };
  Tl.capture r

(* Flow ids are drawn from one process-global allocator, so a pipeline
   trace and a rank-timeline trace written in the same process never
   collide in a merged Perfetto load (and both documents stay valid
   JSON). *)
let test_flow_ids_disjoint_across_exporters () =
  with_obs @@ fun () ->
  let id = Obs.Flow.next_id () in
  Obs.flow_start ~name:"pipeline" id;
  Obs.flow_finish ~name:"pipeline" id;
  let parse j =
    match Obs.Json.of_string (Obs.Json.to_string j) with
    | Ok d -> d
    | Error e -> Alcotest.failf "JSON does not parse: %s" e
  in
  let pipeline_doc = parse (Obs.trace_json ()) in
  (* one matched message, 0 -> 1 *)
  let tl = recv_timeline ~wait:0.0 ~vertex:None in
  let rank_doc = parse (Scalana_profile.Timeline.to_trace_json tl) in
  let flow_ids doc =
    let events =
      match get "traceEvents" doc with
      | Obs.Json.Arr l -> l
      | _ -> Alcotest.fail "traceEvents not an array"
    in
    List.filter_map
      (fun e ->
        match str (get "ph" e) with
        | "s" | "f" -> Some (int_of_float (num (get "id" e)))
        | _ -> None)
      events
    |> List.sort_uniq compare
  in
  let pipeline_ids = flow_ids pipeline_doc in
  let rank_ids = flow_ids rank_doc in
  check_bool "pipeline trace has flows" true (pipeline_ids <> []);
  check_bool "rank trace has flows" true (rank_ids <> []);
  check_bool "no id collides across the two documents" true
    (List.for_all (fun i -> not (List.mem i pipeline_ids)) rank_ids)

(* Wait-state totals reach the metrics registry (and --metrics-out):
   one op counter and one seconds gauge per class. *)
let test_waitstate_metrics () =
  with_obs @@ fun () ->
  let tl = recv_timeline ~wait:0.5 ~vertex:(Some 4) in
  ignore (Scalana_detect.Waitstate.analyze tl : Scalana_detect.Waitstate.t);
  let doc =
    match Obs.Json.of_string (Obs.Json.to_string (Obs.metrics_json ())) with
    | Ok d -> d
    | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  in
  check_int "late-sender op counted" 1
    (int_of_float
       (num (get "waitstate.late-sender" (get "counters" doc))));
  Alcotest.(check (float 1e-12))
    "late-sender seconds gauge" 0.5
    (num (get "waitstate.late-sender_seconds" (get "gauges" doc)));
  Alcotest.(check (float 1e-12))
    "other classes report zero" 0.0
    (num (get "waitstate.collective-imbalance_seconds" (get "gauges" doc)))

(* --- OpenMetrics exposition --- *)

let contains needle s =
  try
    ignore (Str.search_forward (Str.regexp_string needle) s 0);
    true
  with Not_found -> false

let test_openmetrics_format () =
  with_obs @@ fun () ->
  Obs.Metrics.incr ~by:3 "ppg.builds";
  Obs.Metrics.set_gauge "waitstate.late-sender_seconds" 0.5;
  Obs.Metrics.observe "fit" 0.25;
  Obs.Metrics.observe "fit" 2.0;
  Obs.with_span "detect" (fun () -> ());
  let text = Obs.openmetrics_string () in
  let lines = String.split_on_char '\n' text in
  (* counters get the _total suffix and a TYPE declaration *)
  check_bool "counter TYPE line" true
    (List.mem "# TYPE scalana_ppg_builds counter" lines);
  check_bool "counter sample" true
    (List.mem "scalana_ppg_builds_total 3" lines);
  (* gauge names are sanitized into the scalana_ namespace *)
  check_bool "gauge sample" true
    (List.mem "scalana_waitstate_late_sender_seconds 0.5" lines);
  (* histograms are cumulative with a closing +Inf bucket *)
  check_bool "histogram TYPE line" true
    (List.mem "# TYPE scalana_fit histogram" lines);
  let buckets =
    List.filter (fun l -> contains "scalana_fit_bucket{le=" l) lines
  in
  check_int "one bucket per bound plus +Inf"
    (Array.length Obs.Metrics.bucket_bounds + 1)
    (List.length buckets);
  check_bool "+Inf bucket closes the histogram" true
    (List.mem "scalana_fit_bucket{le=\"+Inf\"} 2" lines);
  let cumulative =
    List.filter_map
      (fun l ->
        match String.rindex_opt l ' ' with
        | Some i when contains "scalana_fit_bucket" l ->
            int_of_string_opt
              (String.sub l (i + 1) (String.length l - i - 1))
        | _ -> None)
      lines
  in
  check_bool "bucket counts are nondecreasing" true
    (let rec ok = function
       | a :: (b :: _ as rest) -> a <= b && ok rest
       | _ -> true
     in
     ok cumulative);
  check_bool "histogram count" true (List.mem "scalana_fit_count 2" lines);
  (* phases appear as labelled totals *)
  check_bool "phase seconds" true
    (List.exists
       (fun l -> contains "scalana_phase_seconds_total{phase=\"detect\"}" l)
       lines);
  check_bool "phase calls" true
    (List.mem "scalana_phase_calls_total{phase=\"detect\"} 1" lines);
  (* the exposition terminates with the mandatory EOF marker *)
  check_string "EOF terminator" "# EOF"
    (List.nth lines (List.length lines - 2));
  (* export writes the same text *)
  let path = Filename.temp_file "scalana_om" ".prom" in
  Obs.export_openmetrics ~path;
  let written = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  check_string "file matches string" text written

let test_openmetrics_name_sanitization () =
  with_obs @@ fun () ->
  Obs.Metrics.incr "weird metric-name.v2";
  let text = Obs.openmetrics_string () in
  check_bool "invalid chars replaced" true
    (contains "scalana_weird_metric_name_v2_total 1" text)

(* --- deterministic exporter key order --- *)

let test_exporters_sorted () =
  with_obs @@ fun () ->
  (* args recorded out of order come back sorted in the trace *)
  Obs.with_span ~args:[ ("zeta", "1"); ("alpha", "2") ] "s" (fun () -> ());
  let doc =
    match Obs.Json.of_string (Obs.Json.to_string (Obs.trace_json ())) with
    | Ok d -> d
    | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  in
  let events =
    match get "traceEvents" doc with
    | Obs.Json.Arr l -> l
    | _ -> Alcotest.fail "traceEvents not an array"
  in
  let x = List.find (fun e -> str (get "ph" e) = "X") events in
  (match get "args" x with
  | Obs.Json.Obj kvs ->
      Alcotest.(check (list string))
        "span args sorted" [ "alpha"; "zeta" ] (List.map fst kvs)
  | _ -> Alcotest.fail "args not an object");
  (* phases in the metrics document are sorted by name, not by cost *)
  Obs.with_span "zz" (fun () -> Unix.sleepf 0.002);
  Obs.with_span "aa" (fun () -> ());
  let doc =
    match Obs.Json.of_string (Obs.Json.to_string (Obs.metrics_json ())) with
    | Ok d -> d
    | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  in
  match get "phases" doc with
  | Obs.Json.Arr phases ->
      let names =
        List.map (fun ph -> str (get "name" ph)) phases
      in
      Alcotest.(check (list string))
        "phases sorted by name" (List.sort compare names) names;
      check_bool "expensive phase not first despite cost" true
        (names = List.sort compare names)
  | _ -> Alcotest.fail "phases not an array"

(* JSON corner cases the exporters rely on. *)
let test_json_roundtrip () =
  let open Obs.Json in
  let doc =
    Obj
      [
        ("s", Str "quote \" backslash \\ newline \n tab \t");
        ("n", Num 1.5);
        ("i", Num 1234567.0);
        ("b", Bool true);
        ("z", Null);
        ("a", Arr [ Num 1.0; Str "x"; Obj [] ]);
      ]
  in
  (match of_string (to_string doc) with
  | Ok d -> check_bool "round-trips" true (d = doc)
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e);
  check_string "integral numbers print bare" "1234567"
    (to_string (Num 1234567.0));
  (match of_string "[1, 2" with
  | Ok _ -> Alcotest.fail "accepted malformed input"
  | Error _ -> ());
  match of_string "{\"k\": [true, null, -2.5e1]}" with
  | Ok (Obj [ ("k", Arr [ Bool true; Null; Num n ]) ]) ->
      Alcotest.(check (float 0.0)) "scientific notation" (-25.0) n
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.failf "parse failed: %s" e

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "disabled is inert" `Quick test_disabled_inert;
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "args and exceptions" `Quick
            test_span_args_and_exceptions;
          Alcotest.test_case "pool merge uncorrupted" `Quick test_pool_merge;
        ] );
      ( "export",
        [
          Alcotest.test_case "trace matches span tree" `Quick
            test_trace_export_matches;
          Alcotest.test_case "json corner cases" `Quick test_json_roundtrip;
          Alcotest.test_case "openmetrics format" `Quick
            test_openmetrics_format;
          Alcotest.test_case "openmetrics name sanitization" `Quick
            test_openmetrics_name_sanitization;
          Alcotest.test_case "deterministic key order" `Quick
            test_exporters_sorted;
        ] );
      ( "flows",
        [
          Alcotest.test_case "pool enqueue->execution arrows" `Quick
            test_pool_flows;
          Alcotest.test_case "ids disjoint across exporters" `Quick
            test_flow_ids_disjoint_across_exporters;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "phase summary" `Quick test_phase_summary;
          Alcotest.test_case "waitstate classes exported" `Quick
            test_waitstate_metrics;
        ] );
    ]
