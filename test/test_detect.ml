(* Tests for the detection pipeline: aggregation strategies, log-log
   fitting, non-scalable and abnormal vertex detection, backtracking and
   root-cause extraction. *)

open Scalana_psg
open Scalana_ppg
open Scalana_detect
open Testutil

(* --- aggregate --- *)

let apply = Aggregate.apply
let kmeans = Aggregate.kmeans

let test_aggregate_basic () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (apply Aggregate.Mean a);
  check_float "median even" 2.5 (apply Aggregate.Median a);
  check_float "median odd" 2.0 (apply Aggregate.Median [| 1.0; 2.0; 3.0 |]);
  check_float "single" 3.0 (apply (Aggregate.Single 2) a);
  check_float "single oob" 0.0 (apply (Aggregate.Single 9) a);
  (* a negative rank reads no cell *)
  check_float "single negative" 0.0 (apply (Aggregate.Single (-1)) [| 7.0 |]);
  check_float "empty mean" 0.0 (apply Aggregate.Mean [||]);
  close "variance weighted"
    (2.5 +. sqrt 1.25)
    (apply Aggregate.Variance_weighted a)

let test_kmeans () =
  (* two clear clusters: 8 small, 2 large *)
  let a = [| 1.0; 1.1; 0.9; 1.0; 1.05; 0.95; 1.0; 1.0; 10.0; 10.2 |] in
  let clusters = kmeans ~k:2 a in
  check_int "two clusters" 2 (Array.length clusters);
  let sizes = Array.map snd clusters |> Array.to_list |> List.sort compare in
  Alcotest.(check (list int)) "cluster sizes" [ 2; 8 ] sizes;
  (* the strategy keeps the heavy (slow) cluster centroid *)
  let v = apply (Aggregate.Kmeans 2) a in
  check_bool "heavy cluster" true (v > 9.0 && v < 11.0)

let kmeans_total =
  qtest ~count:100 "kmeans partitions all points"
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_exclusive 100.0))
    (fun l ->
      let a = Array.of_list l in
      let clusters = kmeans ~k:3 a in
      Array.fold_left (fun acc (_, n) -> acc + n) 0 clusters = Array.length a)

(* --- loglog --- *)

(* The fitted model's value at scale [p]. *)
let predict (f : Loglog.fit) p =
  exp (f.intercept +. (f.slope *. log (float_of_int p)))

let test_loglog_exact_powerlaw () =
  (* T = 100 * P^-1 *)
  let pts = List.map (fun p -> (p, 100.0 /. float_of_int p)) [ 2; 4; 8; 16 ] in
  let f = Loglog.fit pts in
  close "slope" (-1.0) f.Loglog.slope;
  close "r2" 1.0 f.Loglog.r2;
  close "predict 32" (100.0 /. 32.0) (predict f 32)

let test_loglog_flat () =
  let pts = List.map (fun p -> (p, 7.0)) [ 2; 4; 8; 16 ] in
  let f = Loglog.fit pts in
  close "slope 0" 0.0 f.Loglog.slope;
  close "predict" 7.0 (predict f 64)

let test_loglog_degenerate () =
  check_int "too few points" 1 (Loglog.fit [ (4, 1.0) ]).Loglog.n;
  check_float "zero slope" 0.0 (Loglog.fit [ (4, 1.0) ]).Loglog.slope;
  (* non-positive values are dropped *)
  let f = Loglog.fit [ (2, 0.0); (4, 1.0); (8, 0.5) ] in
  check_int "dropped zero" 2 f.Loglog.n

let loglog_recovers_slope =
  qtest ~count:100 "loglog recovers planted slope"
    QCheck2.Gen.(float_range (-2.0) 1.0)
    (fun slope ->
      let pts =
        List.map
          (fun p -> (p, 3.0 *. (float_of_int p ** slope)))
          [ 2; 4; 8; 16; 32 ]
      in
      abs_float ((Loglog.fit pts).Loglog.slope -. slope) < 1e-6)

(* --- end-to-end detection fixtures --- *)

let zeus_pipeline =
  lazy
    (let entry = Scalana_apps.Registry.find "zeusmp" in
     Scalana.Pipeline.run ~cost:entry.cost ~scales:[ 4; 8; 16; 32 ]
       (entry.make ()))

let test_nonscalable_flags_waitall_and_bval () =
  let pipe = Lazy.force zeus_pipeline in
  let labels =
    List.map
      (fun (f : Nonscalable.finding) ->
        Vertex.label (Psg.vertex (Scalana.Static.psg pipe.static) f.vertex))
      pipe.analysis.nonscalable
  in
  check_bool "waitall flagged" true
    (List.exists (fun l -> l = "MPI_Waitall") labels);
  check_bool "bval flagged" true
    (List.exists
       (fun l -> String.length l >= 4 && String.sub l 0 4 = "bval")
       labels);
  (* every finding is above the significance floor *)
  List.iter
    (fun (f : Nonscalable.finding) ->
      check_bool "score floor" true (f.score >= 0.25);
      check_bool "fraction floor" true (f.fraction >= 0.01))
    pipe.analysis.nonscalable

(* Regression: a session whose ranks were *all* killed leaves behind a
   nearly empty profile, and the elastic accounting of such a run can
   leave NaN in [Profdata.effective_nprocs].  [Ppg.coverage] and
   [Crossscale.effective_scale] must both degrade to finite values — the
   effective scale falls back to the nominal count — so
   [Loglog.fit_scaled] never sees NaN on either axis. *)
let test_killed_all_ranks_finite () =
  let entry = Scalana_apps.Registry.find "cg" in
  let scales = [ 4; 8; 16 ] in
  let runs =
    List.map
      (fun nprocs ->
        let static =
          Scalana.Static.analyze (entry.Scalana_apps.Registry.make ())
        in
        let faults =
          Scalana_runtime.Faults.plan ~seed:11
            (List.init nprocs (fun r ->
                 Scalana_runtime.Faults.kill_rank ~rank:r ~after:1e-9 ()))
        in
        let r =
          Scalana.Prof.run ~faults ~cost:entry.Scalana_apps.Registry.cost
            static ~nprocs ()
        in
        (* simulate the accounting of a fully-lost session *)
        r.Scalana.Prof.data.Scalana_profile.Profdata.effective_nprocs <-
          Float.nan;
        (Scalana.Static.psg static, nprocs, r.Scalana.Prof.data))
      scales
  in
  let psg, _, _ = List.hd runs in
  let cs = Crossscale.create ~psg (List.map (fun (_, n, d) -> (n, d)) runs) in
  List.iter
    (fun n ->
      let e = Crossscale.effective_scale cs ~nprocs:n in
      check_bool "effective scale finite" true (Float.is_finite e);
      check_float "falls back to nominal" (float_of_int n) e)
    scales;
  let _, largest = Crossscale.largest cs in
  (* coverage stays finite on every vertex, including ones nobody
     survived long enough to report *)
  List.iter
    (fun v ->
      let c = Ppg.coverage largest ~vertex:v in
      check_bool "coverage finite" true (Float.is_finite c);
      check_bool "coverage in range" true (c >= 0.0 && c <= 1.0))
    (Ppg.touched_vertices largest);
  check_float "absent vertex coverage" 0.0
    (Ppg.coverage largest ~vertex:999_999);
  let result = Nonscalable.detect_result cs in
  List.iter
    (fun (f : Nonscalable.finding) ->
      check_bool "slope finite" true (Float.is_finite f.slope);
      check_bool "score finite" true (Float.is_finite f.score))
    result.Nonscalable.findings

let test_nonscalable_ignores_scalable_compute () =
  let pipe = Lazy.force zeus_pipeline in
  let labels =
    List.map
      (fun (f : Nonscalable.finding) ->
        Vertex.label (Psg.vertex (Scalana.Static.psg pipe.static) f.vertex))
      pipe.analysis.nonscalable
  in
  (* the volume work scales ~1/np and must not be reported *)
  check_bool "hsmoc not flagged" true
    (not (List.exists (fun l -> l = "hsmoc_665_body") labels))

let test_abnormal_detection () =
  let pipe = Lazy.force zeus_pipeline in
  let ab = pipe.analysis.abnormal in
  check_bool "findings exist" true (ab <> []);
  (* the busy-rank bval comps deviate infinitely (median 0) *)
  let bval =
    List.filter
      (fun (f : Abnormal.finding) ->
        let l = Vertex.label (Psg.vertex (Scalana.Static.psg pipe.static) f.vertex) in
        try
          ignore (Str.search_forward (Str.regexp_string "_update") l 0);
          String.length l >= 4 && String.sub l 0 4 = "bval"
        with Not_found -> false)
      ab
  in
  check_bool "bval abnormal" true (bval <> []);
  List.iter
    (fun (f : Abnormal.finding) ->
      (* at np=32, exactly the 8 busy ranks deviate *)
      check_int "busy ranks" 8 (List.length f.ranks);
      List.iter (fun r -> check_int "mod 4" 0 (r mod 4)) f.ranks)
    bval

let test_abnormal_threshold_monotone () =
  let pipe = Lazy.force zeus_pipeline in
  let _, ppg = Crossscale.largest pipe.crossscale in
  let count thd =
    List.length
      (Abnormal.detect ~config:{ Abnormal.default_config with abnorm_thd = thd } ppg)
  in
  check_bool "higher threshold, fewer findings" true (count 5.0 <= count 1.1)

(* An unusable threshold is refused rather than turned into a verdict:
   under NaN only zero-median vertices would cross it. *)
let test_abnormal_rejects_bad_thresholds () =
  let pipe = Lazy.force zeus_pipeline in
  let _, ppg = Crossscale.largest pipe.crossscale in
  let detect thd =
    Abnormal.detect
      ~config:{ Abnormal.default_config with abnorm_thd = thd }
      ppg
  in
  List.iter
    (fun thd ->
      match detect thd with
      | _ -> Alcotest.failf "abnorm_thd %g accepted" thd
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.5; 0.0; -1.3 ];
  check_bool "1.0 is usable" true (detect 1.0 <> [])

let test_backtracking_reaches_bval () =
  let pipe = Lazy.force zeus_pipeline in
  let labels = Scalana.Pipeline.root_cause_labels pipe in
  check_bool "causes found" true (labels <> []);
  check_bool "bval is a top cause" true
    (List.exists
       (fun l ->
         try ignore (Str.search_forward (Str.regexp_string "bval") l 0); true
         with Not_found -> false)
       (match labels with a :: b :: c :: _ -> [ a; b; c ] | l -> l))

let test_backtracking_paths_cross_processes () =
  let pipe = Lazy.force zeus_pipeline in
  check_bool "paths exist" true (pipe.analysis.paths <> []);
  check_bool "some path spans processes" true
    (List.exists
       (fun p ->
         List.length
           (List.sort_uniq compare
              (List.map (fun (s : Backtrack.step) -> s.rank) p))
         > 1)
       pipe.analysis.paths);
  (* every path starts at its start vertex and is acyclic per (rank,vid) *)
  List.iter
    (fun path ->
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (s : Backtrack.step) ->
          let k = (s.rank, s.vertex) in
          if Hashtbl.mem seen k then Alcotest.fail "cycle in path";
          Hashtbl.replace seen k ())
        path)
    pipe.analysis.paths

let test_backtracking_pruning_matters () =
  let pipe = Lazy.force zeus_pipeline in
  let _, ppg = Crossscale.largest pipe.crossscale in
  (* from a waitall on a waiting rank: pruned walk crosses to the busy
     rank; unpruned follows some comm edge too, but both terminate *)
  match pipe.analysis.nonscalable with
  | [] -> Alcotest.fail "no start vertex"
  | f :: _ ->
      let start_rank = Rootcause.start_rank ppg ~vertex:f.vertex in
      let visited = Hashtbl.create 16 in
      let pruned =
        Backtrack.backtrack ppg ~visited ~start_rank ~start_vertex:f.vertex
      in
      let visited2 = Hashtbl.create 16 in
      let unpruned =
        Backtrack.backtrack
          ~config:{ Backtrack.default_config with prune_non_wait = false }
          ppg ~visited:visited2 ~start_rank ~start_vertex:f.vertex
      in
      check_bool "pruned path nonempty" true (pruned <> []);
      check_bool "unpruned path nonempty" true (unpruned <> [])

let test_rootcause_ranking () =
  let pipe = Lazy.force zeus_pipeline in
  let causes = pipe.analysis.causes in
  check_bool "causes exist" true (causes <> []);
  (* ranking is by (paths, time, imbalance) descending *)
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
        check_bool "sorted" true
          ((a : Rootcause.cause).n_paths >= (b : Rootcause.cause).n_paths
          || a.n_paths = b.n_paths);
        check_sorted rest
    | _ -> ()
  in
  check_sorted causes

let test_report_renders () =
  let pipe = Lazy.force zeus_pipeline in
  let report = pipe.report in
  check_bool "mentions non-scalable section" true
    (String.length report > 0
    && Str.string_match (Str.regexp ".*non-scalable.*") report 0
       ||
       try
         ignore (Str.search_forward (Str.regexp_string "non-scalable") report 0);
         true
       with Not_found -> false);
  (try
     ignore (Str.search_forward (Str.regexp_string "root causes") report 0)
   with Not_found -> Alcotest.fail "no root-cause section");
  try ignore (Str.search_forward (Str.regexp_string "bval") report 0)
  with Not_found -> Alcotest.fail "bval not in report"

(* detection on a healthy program stays quiet *)
let test_healthy_program_quiet () =
  let entry = Scalana_apps.Registry.find "ep" in
  let pipe =
    Scalana.Pipeline.run ~cost:entry.cost ~scales:[ 4; 8; 16 ] (entry.make ())
  in
  (* EP is embarrassingly parallel: no compute vertex should be flagged *)
  let compute_findings =
    List.filter
      (fun (f : Nonscalable.finding) ->
        Vertex.is_comp (Psg.vertex (Scalana.Static.psg pipe.static) f.vertex))
      pipe.analysis.nonscalable
  in
  check_int "no non-scalable compute" 0 (List.length compute_findings)


(* end-to-end detection on the SST and Nekbone case studies *)
let case_study_finds name scales expected =
  let entry = Scalana_apps.Registry.find name in
  let pipe =
    Scalana.Pipeline.run ~cost:entry.cost ~scales (entry.make ())
  in
  let labels = Scalana.Pipeline.root_cause_labels pipe in
  let found =
    List.exists
      (fun l ->
        List.exists
          (fun e ->
            try
              ignore (Str.search_forward (Str.regexp_string e) l 0);
              true
            with Not_found -> false)
          expected)
      labels
  in
  if not found then
    Alcotest.failf "%s: expected one of [%s] among causes [%s]" name
      (String.concat "," expected)
      (String.concat "; " labels)

let test_sst_case () =
  case_study_finds "sst" [ 4; 8; 16; 32 ]
    [ "satisfyDependency"; "handleEvent" ]

let test_nekbone_case () =
  case_study_finds "nekbone" [ 4; 8; 16; 32 ] [ "dgemm" ]


(* --- def-use backtracking --- *)

let test_follow_def_use_changes_step () =
  (* loop it { barrier; let w = it*100; comp(w) }: the comp's value
     chains through the let to the loop variable, so with the flag on
     the walk steps comp -> loop along the recorded def-use edge; with
     it off (paper-faithful) it steps to the previous sibling, the
     barrier *)
  let prog =
    let open Scalana_mlang in
    let open Expr.Infix in
    let b = Builder.create ~file:"fd.mmp" ~name:"fd" () in
    Builder.func b "main" (fun () ->
        [
          Builder.loop b ~var:"it" ~count:(i 4) (fun () ->
              [
                Builder.barrier b;
                Builder.let_ b "w" (v "it" * i 1_000_000);
                Builder.comp b ~flops:(v "w" + i 1_000_000) ~mem:(i 1000) ();
              ]);
        ]);
    Builder.program b
  in
  let pipe = Scalana.Pipeline.run ~scales:[ 2; 4 ] prog in
  let psg = Scalana.Static.psg pipe.static in
  let _, ppg = Crossscale.largest pipe.crossscale in
  let one pred name =
    match Psg.find_all pred psg with
    | [ v ] -> v.Vertex.id
    | _ -> Alcotest.failf "expected one %s vertex" name
  in
  let comp = one Vertex.is_comp "comp" in
  let loop = one Vertex.is_loop "loop" in
  let barrier = one Vertex.is_mpi "barrier" in
  check_bool "def-use edge recorded" true
    (List.mem loop (Psg.data_deps psg comp));
  let walk follow_def_use =
    Backtrack.backtrack
      ~config:{ Backtrack.default_config with follow_def_use }
      ppg
      ~visited:(Hashtbl.create 16)
      ~start_rank:0 ~start_vertex:comp
  in
  let second path =
    match (path : Backtrack.path) with
    | _ :: (s : Backtrack.step) :: _ -> (s.vertex, s.via)
    | _ -> Alcotest.fail "walk too short"
  in
  let v_off, via_off = second (walk false) in
  check_int "flag off: previous sibling" barrier v_off;
  check_bool "flag off: sibling-order step" true (via_off = Backtrack.Data_dep);
  let v_on, via_on = second (walk true) in
  check_int "flag on: def-use target" loop v_on;
  check_bool "flag on: def-use step" true (via_on = Backtrack.Def_use)

(* --- critical-path extension --- *)

(* One run with only the rank-timeline recorder attached: the
   contracted PSG its vertices index, the timeline and the run. *)
let timeline_run ?(nprocs = 4) ?cost prog =
  let static = Scalana.Static.analyze prog in
  let recorder =
    Scalana_profile.Timeline.create ~index:static.index ~nprocs ()
  in
  let cfg =
    Scalana_runtime.Exec.config ~nprocs ?cost
      ~tools:[ Scalana_profile.Timeline.tool recorder ] ()
  in
  let r = Scalana_runtime.Exec.run ~cfg prog in
  (Scalana.Static.psg static, Scalana_profile.Timeline.capture recorder, r)

let mentions sub s =
  try
    ignore (Str.search_forward (Str.regexp_string sub) s 0);
    true
  with Not_found -> false

let test_critpath_planted_loop () =
  (* rank 0 computes a long loop before every barrier: the loop must
     dominate the critical path even though it runs on one rank *)
  let prog =
    let open Scalana_mlang in
    let open Expr.Infix in
    let b = Builder.create ~file:"cp.mmp" ~name:"cp" () in
    Builder.func b "main" (fun () ->
        [
          Builder.loop b ~var:"s" ~count:(i 5) (fun () ->
              [
                Builder.branch b ~cond:(rank = i 0) (fun () ->
                    [
                      Builder.comp b ~label:"slow_loop" ~flops:(i 60_000_000)
                        ~mem:(i 30_000_000) ();
                    ]);
                Builder.comp b ~label:"balanced" ~flops:(i 1_000_000)
                  ~mem:(i 500_000) ();
                Builder.barrier b;
              ]);
        ]);
    Builder.program b
  in
  let psg, tl, r = timeline_run prog in
  let cp = Critpath.analyze ~psg tl in
  check_bool "chain covers the run" true (cp.Critpath.total > 0.5 *. r.elapsed);
  match Critpath.top ~n:1 cp with
  | [ (loc, seconds) ] ->
      check_bool "slow loop tops the chain" true (mentions "slow_loop" loc);
      check_bool "dominant share" true (seconds > 0.8 *. cp.Critpath.total)
  | _ -> Alcotest.fail "no top location"

let test_critpath_empty_and_balanced () =
  let prog = ring_program ~niter:10 ~work:2_000_000 () in
  let psg, tl, r = timeline_run prog in
  let empty =
    Scalana_profile.Timeline.capture
      (Scalana_profile.Timeline.create
         ~index:(Scalana.Static.analyze prog).index ~nprocs:4 ())
  in
  let cp = Critpath.analyze ~psg empty in
  check_bool "empty trace" true (cp.Critpath.total = 0.0 && cp.segments = []);
  (* a balanced ring: the chain is roughly one rank's compute time *)
  let cp = Critpath.analyze ~psg tl in
  check_bool "chain within elapsed" true
    (cp.Critpath.total <= r.elapsed *. 1.01);
  check_bool "chain covers most of elapsed" true
    (cp.Critpath.total > 0.5 *. r.elapsed)

let test_critpath_agrees_with_backtracking () =
  (* zeus-mp: the bval updates must appear on the critical path, the
     same code backtracking blames *)
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let psg, tl, _ = timeline_run ~nprocs:8 ~cost:entry.cost (entry.make ()) in
  let cp = Critpath.analyze ~psg tl in
  let on_chain =
    List.exists
      (fun (loc, s) -> s > 0.0 && mentions "bval" loc)
      cp.Critpath.by_location
  in
  check_bool "bval on the chain" true on_chain

(* The pipeline's own timeline, recorded inside the largest profiled
   run, serves the critical path: no second run, traced or not. *)
let test_critpath_pipeline_timeline () =
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let t =
    Scalana.Pipeline.run ~cost:entry.cost ~scales:[ 4; 8; 16 ] ~timeline:true
      (entry.make ())
  in
  let cp =
    Critpath.analyze
      ~psg:(Scalana.Static.psg t.static)
      (Option.get t.timeline)
  in
  check_bool "bval on the chain" true
    (List.exists
       (fun (loc, s) -> s > 0.0 && mentions "bval" loc)
       cp.Critpath.by_location)

(* The chain says how much of the run it covers and whether the
   timeline it walked was capped.  lu at np=64, replayed as profiled,
   overflows the default 200,000-event cap: its chain ends where
   recording stopped and covers 39.5% of the run. *)
let test_critpath_coverage () =
  let chain name nprocs =
    let entry = Scalana_apps.Registry.find name in
    let static = Scalana.Static.analyze (entry.make ()) in
    let tl = Scalana.Pipeline.rank_timeline ~cost:entry.cost static ~nprocs in
    (tl, Critpath.analyze ~psg:(Scalana.Static.psg static) tl)
  in
  let tl, cp = chain "lu" 64 in
  check_int "lu: events dropped at the cap" 288_896 cp.Critpath.dropped;
  check_float "lu: the timeline's elapsed time"
    (Scalana_profile.Timeline.elapsed tl)
    cp.Critpath.elapsed;
  check_float "lu: share = total / elapsed"
    (cp.Critpath.total /. cp.Critpath.elapsed)
    cp.Critpath.share;
  close ~eps:1e-3 "lu: share" 0.395 cp.Critpath.share;
  List.iter
    (fun nprocs ->
      let _, cp = chain "zeusmp" nprocs in
      let what = Printf.sprintf "zeusmp np=%d" nprocs in
      check_int (what ^ ": nothing dropped") 0 cp.Critpath.dropped;
      check_bool
        (Printf.sprintf "%s: share %.4f in (0, 1]" what cp.Critpath.share)
        true
        (cp.Critpath.share > 0.0 && cp.Critpath.share <= 1.0))
    [ 4; 8; 16 ]

(* --- seeded properties through the stdlib Prop harness --- *)

(* Floats as the profiler might hand them over after faults: NaN from a
   broken counter, negative garbage, infinities, zeros and plain values. *)
let messy_float =
  let open Prop in
  {
    gen =
      (fun r ->
        match below r 8 with
        | 0 -> Float.nan
        | 1 -> -.(float_of_int (below r 10_000) /. 100.0)
        | 2 -> Float.infinity
        | 3 -> 0.0
        | _ -> float_of_int (below r 10_000) /. 100.0);
    shrink = (fun _ -> []);
    show = (fun x -> Printf.sprintf "%h" x);
  }

let prop_sanitize_idempotent =
  Prop.test ~count:200 "sanitize is idempotent"
    (Prop.list_of ~max_len:24 messy_float)
    (fun l ->
      let a = Array.of_list l in
      let once, dropped = Aggregate.sanitize a in
      let twice, dropped_again = Aggregate.sanitize once in
      dropped_again = 0
      (* always a fresh array (every empty array is the one [||]) *)
      && (Array.length once = 0 || twice != once)
      && List.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
           (Array.to_list once) (Array.to_list twice)
      && dropped = Array.length a - Array.length once
      && not (Array.exists (fun x -> Float.is_nan x || x < 0.0) once))

(* The kernel against a naive reference.  Rows with NaN, negative and
   infinite cells (cut from a column of several, as the generator has
   always drawn them); each reference is the textbook formula over the
   list of surviving cells in rank order, and the two must agree to the
   last bit. *)
type kernel_case = { col : float array; off : int; len : int }

let kernel_case =
  let open Prop in
  {
    gen =
      (fun r ->
        let len = 1 + below r 12 in
        let rows = 2 + below r 3 in
        let row = 1 + below r (rows - 1) in
        { col = Array.init (rows * len) (fun _ -> messy_float.gen r);
          off = row * len; len });
    shrink = (fun _ -> []);
    show =
      (fun c ->
        Printf.sprintf "off=%d len=%d col=[%s]" c.off c.len
          (String.concat "; "
             (Array.to_list (Array.map (Printf.sprintf "%h") c.col))));
  }

let ref_mean l =
  if l = [] then 0.0
  else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let ref_median l =
  let n = List.length l in
  let s = List.sort compare l in
  if n = 0 then 0.0
  else if n mod 2 = 1 then List.nth s (n / 2)
  else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let ref_variance l =
  let m = ref_mean l in
  if l = [] then 0.0
  else
    List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 l
    /. float_of_int (List.length l)

(* Lloyd's algorithm on lists: seeds at the same quantiles, nearest
   centroid by strict distance (ties keep the lower index), centroids
   re-averaged in rank order, at most 100 rounds. *)
let ref_kmeans k l =
  let n = List.length l in
  if n = 0 || k <= 0 then []
  else begin
    let k = min k n in
    let sorted = List.sort compare l in
    let seeds =
      List.init k (fun i -> List.nth sorted (min (n - 1) ((i * n / k) + (n / (2 * k)))))
    in
    let nearest cents x =
      fst
        (List.fold_left
           (fun (best, bestd) (i, c) ->
             let d = abs_float (x -. c) in
             if d < bestd then (i, d) else (best, bestd))
           (0, infinity)
           (List.mapi (fun i c -> (i, c)) cents))
    in
    let members assign c =
      List.filteri (fun i _ -> List.nth assign i = c) l
    in
    let update cents assign =
      List.mapi
        (fun c old ->
          match members assign c with
          | [] -> old
          | m -> List.fold_left ( +. ) 0.0 m /. float_of_int (List.length m))
        cents
    in
    let rec loop rounds cents assign =
      if rounds >= 100 then (cents, assign)
      else begin
        let assign' = List.map (nearest cents) l in
        let cents' = update cents assign' in
        if assign' = assign then (cents', assign')
        else loop (rounds + 1) cents' assign'
      end
    in
    let cents, assign = loop 0 seeds (List.map (fun _ -> 0) l) in
    List.mapi (fun c cent -> (cent, List.length (members assign c))) cents
  end

let ref_apply strategy raw l =
  match strategy with
  | Aggregate.Single r -> (
      match if r < 0 then None else List.nth_opt raw r with
      | Some x when not (Float.is_nan x || x < 0.0) -> x
      | _ -> 0.0)
  | Aggregate.Mean -> ref_mean l
  | Aggregate.Median -> ref_median l
  | Aggregate.Variance_weighted -> ref_mean l +. sqrt (ref_variance l)
  | Aggregate.Kmeans k -> (
      let heavy =
        List.fold_left
          (fun acc (c, n) ->
            match acc with
            | None -> if n > 0 then Some c else None
            | Some bc -> if n > 0 && c > bc then Some c else acc)
          None (ref_kmeans k l)
      in
      match heavy with Some c -> c | None -> 0.0)

let prop_kernel_matches_reference =
  Prop.test ~count:300 "kernel matches a list reference bit for bit"
    kernel_case
    (fun { col; off; len } ->
      let bits = Int64.bits_of_float in
      let same a b = bits a = bits b in
      let row = Array.sub col off len in
      let raw = Array.to_list row in
      let l = List.filter (fun x -> not (Float.is_nan x || x < 0.0)) raw in
      let clean, dropped = Aggregate.sanitize row in
      let strategies =
        Aggregate.
          [ Single (-1); Single 0; Single (len / 2); Single (len - 1);
            Single len; Mean; Median; Variance_weighted; Kmeans 1; Kmeans 2;
            Kmeans 3 ]
      in
      Aggregate.quarantined_in row = len - List.length l
      && dropped = len - List.length l
      && List.equal same (Array.to_list clean) l
      && same (Aggregate.sum_clean row) (List.fold_left ( +. ) 0.0 l)
      && same (Aggregate.max_clean row) (List.fold_left Float.max 0.0 l)
      && same (Aggregate.mean row) (ref_mean l)
      && same (Aggregate.median row) (ref_median l)
      && same (Aggregate.variance row) (ref_variance l)
      && List.for_all
           (fun s -> same (Aggregate.apply s row) (ref_apply s raw l))
           strategies)

let prop_fit_recovers_slope =
  Prop.test ~count:200 "fit recovers planted slope (shrinking harness)"
    Prop.(pair (float_range (-2.5) 1.5) (float_range 0.1 50.0))
    (fun (slope, coeff) ->
      let pts =
        List.map
          (fun p -> (p, coeff *. (float_of_int p ** slope)))
          [ 2; 4; 8; 16; 32; 64 ]
      in
      abs_float ((Loglog.fit pts).Loglog.slope -. slope) < 1e-6)

let () =
  Alcotest.run "detect"
    [
      ( "aggregate",
        [
          Alcotest.test_case "basic strategies" `Quick test_aggregate_basic;
          Alcotest.test_case "kmeans clusters" `Quick test_kmeans;
          kmeans_total;
          prop_sanitize_idempotent;
          prop_kernel_matches_reference;
        ] );
      ( "loglog",
        [
          Alcotest.test_case "exact power law" `Quick test_loglog_exact_powerlaw;
          Alcotest.test_case "flat series" `Quick test_loglog_flat;
          Alcotest.test_case "degenerate input" `Quick test_loglog_degenerate;
          loglog_recovers_slope;
          prop_fit_recovers_slope;
        ] );
      ( "nonscalable",
        [
          Alcotest.test_case "flags waitall and bval" `Quick
            test_nonscalable_flags_waitall_and_bval;
          Alcotest.test_case "ignores scalable compute" `Quick
            test_nonscalable_ignores_scalable_compute;
          Alcotest.test_case "killed-all-ranks stays finite" `Quick
            test_killed_all_ranks_finite;
        ] );
      ( "abnormal",
        [
          Alcotest.test_case "busy-rank detection" `Quick
            test_abnormal_detection;
          Alcotest.test_case "threshold monotone" `Quick
            test_abnormal_threshold_monotone;
          Alcotest.test_case "rejects bad thresholds" `Quick
            test_abnormal_rejects_bad_thresholds;
        ] );
      ( "backtrack",
        [
          Alcotest.test_case "reaches bval loop" `Quick
            test_backtracking_reaches_bval;
          Alcotest.test_case "paths cross processes" `Quick
            test_backtracking_paths_cross_processes;
          Alcotest.test_case "def-use flag changes step" `Quick
            test_follow_def_use_changes_step;
          Alcotest.test_case "pruning config" `Quick
            test_backtracking_pruning_matters;
        ] );
      ( "rootcause",
        [
          Alcotest.test_case "ranking" `Quick test_rootcause_ranking;
          Alcotest.test_case "report renders" `Quick test_report_renders;
          Alcotest.test_case "healthy program quiet" `Quick
            test_healthy_program_quiet;
          Alcotest.test_case "sst case study" `Slow test_sst_case;
          Alcotest.test_case "nekbone case study" `Slow test_nekbone_case;
        ] );
      ( "critpath",
        [
          Alcotest.test_case "planted loop dominates" `Quick
            test_critpath_planted_loop;
          Alcotest.test_case "empty and balanced" `Quick
            test_critpath_empty_and_balanced;
          Alcotest.test_case "agrees with backtracking" `Quick
            test_critpath_agrees_with_backtracking;
          Alcotest.test_case "pipeline timeline" `Quick
            test_critpath_pipeline_timeline;
          Alcotest.test_case "covered share and cap" `Quick
            test_critpath_coverage;
        ] );
    ]
