(* Tests for the ScalAna profiling layer: performance vectors, comm-record
   compression, sampling attribution and indirect-call resolution. *)

open Scalana_mlang
open Scalana_psg
open Scalana_runtime
open Scalana_profile
open Testutil

let static_of prog =
  let locals = Intra.build_all prog in
  let full = Inter.build ~locals prog in
  let contraction = Contract.run full in
  let index = Index.build ~full ~contraction in
  (locals, full, contraction, index)

let profiled_run ?config ?cost ?(nprocs = 4) prog =
  let _, _, contraction, index = static_of prog in
  let profiler = Profiler.create ?config ~index ~nprocs () in
  let cfg =
    Exec.config ~nprocs ?cost ~tools:[ Profiler.tool profiler ] ()
  in
  let result = Exec.run ~cfg prog in
  (contraction, index, Profiler.data profiler, result)

(* --- perfvec --- *)

let test_perfvec () =
  let v = Perfvec.create () in
  Perfvec.add_sampled v ~time:0.5 ~samples:2 ~pmu:Pmu.zero;
  Perfvec.add_sampled v ~time:0.25 ~samples:1 ~pmu:Pmu.zero;
  Perfvec.add_wait v ~wait:0.1;
  check_float "time" 0.75 v.Perfvec.time;
  check_int "samples" 3 v.Perfvec.samples;
  check_float "wait" 0.1 v.Perfvec.wait;
  check_int "calls" 1 v.Perfvec.calls;
  let dst = Perfvec.create () in
  Perfvec.merge_into ~dst v;
  Perfvec.merge_into ~dst v;
  check_float "merged time" 1.5 dst.Perfvec.time;
  check_int "merged samples" 6 dst.Perfvec.samples

(* --- commrec --- *)

let test_commrec_compression () =
  let t = Commrec.create () in
  let key =
    {
      Commrec.recv_rank = 1;
      recv_vertex = 10;
      send_rank = 0;
      send_vertex = 9;
      tag = 3;
      bytes = 1024;
    }
  in
  for _ = 1 to 100 do
    Commrec.record_p2p t ~key ~waited:false ~wait_seconds:0.0
  done;
  Commrec.record_p2p t ~key ~waited:true ~wait_seconds:0.5;
  check_int "one edge" 1 (Commrec.n_p2p t);
  let e = List.hd (Commrec.p2p_edges t) in
  check_int "hits" 101 e.Commrec.hits;
  check_bool "wait sticky" true e.Commrec.has_wait;
  check_float "max wait" 0.5 e.Commrec.max_wait;
  (* compression ratio accounting *)
  check_bool "compressed smaller" true
    (Commrec.storage_bytes t < Commrec.uncompressed_bytes t);
  (* distinct keys create distinct edges *)
  Commrec.record_p2p t
    ~key:{ key with Commrec.tag = 4 }
    ~waited:false ~wait_seconds:0.0;
  check_int "two edges" 2 (Commrec.n_p2p t)

let test_commrec_collectives () =
  let t = Commrec.create () in
  Commrec.record_coll t ~vertex:5 ~last_arrival_rank:2;
  Commrec.record_coll t ~vertex:5 ~last_arrival_rank:2;
  Commrec.record_coll t ~vertex:5 ~last_arrival_rank:7;
  check_int "one record" 1 (Commrec.n_coll t);
  let r = List.hd (Commrec.coll_records t) in
  check_int "instances" 3 r.Commrec.instances;
  check_int "dominant late rank" 2 (Commrec.dominant_late_rank r)

(* --- sampling --- *)

let test_sampling_density () =
  (* a long single-vertex program: sample count ~ elapsed * freq *)
  let prog = ring_program ~niter:40 ~work:3_000_000 () in
  let _, _, data, result = profiled_run ~nprocs:4 prog in
  let expected = result.Exec.elapsed *. 200.0 *. 4.0 in
  let got = float_of_int data.Profdata.total_samples in
  check_bool "sample density"
    true
    (got > 0.5 *. expected && got < 1.5 *. expected);
  check_bool "few unattributed" true
    (data.Profdata.unattributed_samples * 10 < data.Profdata.total_samples + 10)

let test_attribution_targets_hot_vertex () =
  let prog = ring_program ~niter:50 ~work:2_000_000 () in
  let contraction, _, data, _ = profiled_run ~nprocs:4 prog in
  (* the "work" comp must absorb the bulk of sampled time on rank 0 *)
  let work_vertex =
    List.hd
      (Psg.find_all
         (fun v ->
           match v.Vertex.kind with
           | Vertex.Comp { label = Some "work"; _ } -> true
           | _ -> false)
         contraction.Contract.psg)
  in
  let total =
    Hashtbl.fold
      (fun _ (v : Perfvec.t) acc -> acc +. v.Perfvec.time)
      data.Profdata.vectors.(0) 0.0
  in
  match Profdata.vector_opt data ~rank:0 ~vertex:work_vertex.Vertex.id with
  | Some v ->
      check_bool "hot vertex dominates" true (v.Perfvec.time > 0.6 *. total)
  | None -> Alcotest.fail "work vertex has no data"

let test_wait_recorded_on_mpi_vertex () =
  let prog =
    let open Expr.Infix in
    let b = Builder.create ~file:"w.mmp" ~name:"w" () in
    Builder.func b "main" (fun () ->
        [
          Builder.branch b
            ~cond:(rank = i 0)
            (fun () -> [ Builder.comp b ~flops:(i 80_000_000) ~mem:(i 30_000_000) () ]);
          Builder.barrier b;
        ]);
    Builder.program b
  in
  let contraction, _, data, _ = profiled_run ~nprocs:4 prog in
  let barrier_vertex =
    List.hd (Psg.find_all Vertex.is_mpi contraction.Contract.psg)
  in
  (* non-delayed ranks accumulated wait at the barrier *)
  (match Profdata.vector_opt data ~rank:1 ~vertex:barrier_vertex.Vertex.id with
  | Some v ->
      check_bool "rank1 waited" true (v.Perfvec.wait > 0.001);
      check_int "calls counted" 1 v.Perfvec.calls
  | None -> Alcotest.fail "barrier vector missing on rank 1");
  match Profdata.vector_opt data ~rank:0 ~vertex:barrier_vertex.Vertex.id with
  | Some v -> check_bool "rank0 did not wait" true (v.Perfvec.wait < 0.001)
  | None -> ()

let test_record_prob_zero () =
  let prog = ring_program ~niter:10 () in
  let config = { Profiler.default_config with record_prob = 0.0 } in
  let _, _, data, _ = profiled_run ~config ~nprocs:4 prog in
  check_int "no comm records" 0 (Commrec.n_p2p data.Profdata.comm + Commrec.n_coll data.Profdata.comm)

let test_record_prob_one_dependence () =
  let prog = ring_program ~niter:10 () in
  let config = { Profiler.default_config with record_prob = 1.0 } in
  let _, _, data, _ = profiled_run ~config ~nprocs:4 prog in
  (* every rank's sendrecv edge to its left neighbour is recorded *)
  check_bool "p2p edges" true (Commrec.n_p2p data.Profdata.comm >= 4);
  check_int "one collective vertex" 1 (Commrec.n_coll data.Profdata.comm)

let test_icall_resolution () =
  let prog = recursion_program () in
  let _, _, data, _ = profiled_run ~nprocs:4 prog in
  let targets =
    Profdata.icall_resolutions data
    |> List.map (fun (r : Profdata.icall_resolution) -> r.target)
    |> List.sort_uniq compare
  in
  (* ranks 0,2 call alpha; ranks 1,3 call beta *)
  Alcotest.(check (list string)) "both targets" [ "alpha"; "beta" ] targets

let test_storage_accounting () =
  let prog = ring_program ~niter:10 () in
  let _, _, data, _ = profiled_run ~nprocs:8 prog in
  let bytes = Profdata.storage_bytes data in
  check_bool "positive" true (bytes > 0);
  (* kilobyte order for a toy program, not megabytes *)
  check_bool "small" true (bytes < 100_000);
  check_bool "touched vertices listed" true
    (List.length (Profdata.touched_vertices data) > 0)

let test_across_ranks () =
  let prog = ring_program ~niter:10 ~work:2_000_000 () in
  let contraction, _, data, _ = profiled_run ~nprocs:4 prog in
  let work_vertex =
    List.hd
      (Psg.find_all
         (fun v ->
           match v.Vertex.kind with
           | Vertex.Comp { label = Some "work"; _ } -> true
           | _ -> false)
         contraction.Contract.psg)
  in
  let per_rank = Profdata.across_ranks data ~vertex:work_vertex.Vertex.id in
  check_int "one slot per rank" 4 (Array.length per_rank);
  Array.iter
    (fun v -> check_bool "every rank sampled the hot loop" true (v <> None))
    per_rank

(* --- timeline --- *)

let timeline_run ?tconfig ?cost ?(nprocs = 4) prog =
  let _, _, _, index = static_of prog in
  let recorder = Timeline.create ?config:tconfig ~index ~nprocs () in
  let cfg = Exec.config ~nprocs ?cost ~tools:[ Timeline.tool recorder ] () in
  let result = Exec.run ~cfg prog in
  (Timeline.capture recorder, result)

let test_timeline_records () =
  let prog = ring_program ~niter:10 ~work:500_000 () in
  let tl, result = timeline_run ~nprocs:4 prog in
  check_int "nprocs" 4 tl.Timeline.nprocs;
  check_float "elapsed" result.Exec.elapsed tl.Timeline.elapsed;
  let has_kind p =
    Array.exists (fun iv -> p iv.Timeline.iv_kind) tl.Timeline.intervals
  in
  check_bool "compute intervals" true
    (has_kind (function Timeline.Compute _ -> true | _ -> false));
  check_bool "mpi intervals" true
    (has_kind (function Timeline.Mpi _ -> true | _ -> false));
  (* every rank contributed, and each per-rank stream is time-ordered *)
  for rank = 0 to 3 do
    let ivs =
      Array.to_list tl.Timeline.intervals
      |> List.filter (fun iv -> iv.Timeline.iv_rank = rank)
    in
    check_bool "rank has intervals" true (ivs <> []);
    let rec ordered = function
      | a :: (b :: _ as rest) ->
          a.Timeline.iv_start <= b.Timeline.iv_start && ordered rest
      | _ -> true
    in
    check_bool "rank stream ordered" true (ordered ivs)
  done;
  (* the ring sendrecv produced matched messages with sane timestamps *)
  check_bool "messages recorded" true (Array.length tl.Timeline.messages > 0);
  Array.iter
    (fun m ->
      check_bool "send precedes arrival" true
        (m.Timeline.msg_send_time <= m.Timeline.msg_arrival))
    tl.Timeline.messages;
  check_int "nothing dropped" 0 (Timeline.total_dropped tl)

let test_timeline_compression () =
  (* fig3's inner loops run the same comp vertex back to back, so the
     vertex-keyed merge must collapse those streaks *)
  let prog = fig3_program () in
  let tl, _ = timeline_run ~nprocs:4 prog in
  check_bool "merged some intervals" true (tl.Timeline.merged > 0);
  check_bool "a multi-iteration slice" true
    (Array.exists
       (fun iv -> iv.Timeline.iv_merged > 1)
       tl.Timeline.intervals)

let test_timeline_truncation () =
  let prog = ring_program ~niter:20 ~work:500_000 () in
  let full, _ = timeline_run ~nprocs:4 prog in
  let capped, _ =
    timeline_run ~tconfig:{ Timeline.max_events = 8 } ~nprocs:4 prog
  in
  check_bool "events dropped" true (Timeline.total_dropped capped > 0);
  check_bool "cap respected" true
    (Array.length capped.Timeline.intervals
     + Array.length capped.Timeline.messages
    <= 8);
  (* blocked-time accounting survives truncation untouched *)
  check_bool "some blocked time" true (Timeline.total_blocked full > 0.0);
  check_float "blocked preserved" (Timeline.total_blocked full)
    (Timeline.total_blocked capped)

let test_timeline_zero_overhead () =
  (* the recorder is an idealized observer: identical clocks either way *)
  let prog = ring_program ~niter:20 ~work:1_000_000 () in
  let bare = run ~nprocs:4 prog in
  let _, instrumented = timeline_run ~nprocs:4 prog in
  check_float "idealized observer" bare.Exec.elapsed instrumented.Exec.elapsed

(* --- resolver --- *)

(* A zero-overhead tool handing every hook context to [on_ctx] (with
   the label of a compute span) and every matched send's context to
   [on_peer]. *)
let context_tool ?(on_peer = fun ~callpath:_ ~loc:_ -> ()) on_ctx =
  {
    (Instrument.nil "contexts") with
    Instrument.on_interval =
      (fun c ~stop:_ act ->
        (match act with
        | Instrument.Compute { label; _ } -> on_ctx c ~label
        | Instrument.Mpi_span _ -> on_ctx c ~label:None);
        0.0);
    on_mpi_enter = (fun c _ -> on_ctx c ~label:None; 0.0);
    on_mpi_exit =
      (fun c info ->
        on_ctx c ~label:None;
        List.iter
          (fun (d : Instrument.peer_dep) ->
            on_peer ~callpath:d.peer_callpath ~loc:d.peer_loc)
          info.deps;
        0.0);
    on_icall = (fun c ~target:_ -> on_ctx c ~label:None; 0.0);
  }

(* One helper reached from two call sites: the same statement owns a
   different vertex under each call path. *)
let two_callers_program () =
  let open Expr.Infix in
  let b = Builder.create ~file:"two.mmp" ~name:"two" () in
  Builder.func b "halo" (fun () ->
      [
        Builder.comp b ~label:"pack" ~flops:(i 400_000) ~mem:(i 100_000) ();
        Builder.sendrecv b
          ~dest:((rank + i 1) % np)
          ~sbytes:(i 1024)
          ~src:((rank - i 1 + np) % np)
          ~rbytes:(i 1024) ();
      ]);
  Builder.func b "main" (fun () ->
      [
        Builder.loop b ~label:"outer" ~var:"it" ~count:(i 5) (fun () ->
            [
              Builder.call b "halo";
              Builder.comp b ~label:"solve" ~flops:(i 2_000_000) ~mem:(i 500_000) ();
              Builder.call b "halo";
            ]);
      ]);
  Builder.program b

(* The memo against the string-keyed lookup it stands in for, on every
   context a run presents: each hook's (call path, loc) and each matched
   send's, over the whole registry plus [two_callers_program]. *)
let test_resolver_matches_find () =
  let programs =
    ("two-callers", two_callers_program (), Costmodel.default)
    :: List.map
         (fun (e : Scalana_apps.Registry.entry) -> (e.name, e.make (), e.cost))
         Scalana_apps.Registry.all
  in
  List.iter
    (fun (name, prog, cost) ->
      let _, _, _, index = static_of prog in
      List.iter
        (fun nprocs ->
          let resolver = Index.Resolver.create index in
          let lookups = ref 0 and mismatches = ref 0 in
          let agree ~callpath ~loc =
            incr lookups;
            if
              Index.Resolver.find resolver ~callpath ~loc
              <> Index.find index ~callpath ~loc
            then incr mismatches
          in
          let tool =
            context_tool ~on_peer:agree (fun (c : Instrument.ctx) ~label:_ ->
                agree ~callpath:c.callpath ~loc:c.loc)
          in
          let cfg = Exec.config ~nprocs ~cost ~tools:[ tool ] () in
          ignore (Exec.run ~cfg prog : Exec.result);
          let what = Printf.sprintf "%s np=%d" name nprocs in
          check_bool (what ^ " contexts seen") true (!lookups > 0);
          check_int (what ^ " resolver = find") 0 !mismatches)
        [ 4; 16 ])
    programs

(* The fixture above really has one statement under two vertices. *)
let test_resolver_call_path_matters () =
  let _, _, _, index = static_of (two_callers_program ()) in
  let resolver = Index.Resolver.create index in
  let pack = ref [] in
  let tool =
    context_tool (fun (c : Instrument.ctx) ~label ->
        if label = Some "pack" then pack := (c.callpath, c.loc) :: !pack)
  in
  ignore (run ~nprocs:2 ~tools:[ tool ] (two_callers_program ()) : Exec.result);
  let vertices =
    List.sort_uniq compare
      (List.map
         (fun (callpath, loc) -> Index.Resolver.find resolver ~callpath ~loc)
         !pack)
  in
  check_int "two vertices for one statement" 2 (List.length vertices);
  check_bool "both attributed" true (not (List.mem None vertices))

(* Splicing an indirect call grows the index; only a resolver created
   afterwards sees the new vertices — a resolver must not outlive its
   run. *)
let test_resolver_after_refinement () =
  let prog = recursion_program () in
  let locals, _, contraction, index = static_of prog in
  let site =
    List.hd
      (Psg.find_all
         (fun v ->
           match v.Vertex.kind with
           | Vertex.Callsite { callee = None; _ } -> true
           | _ -> false)
         contraction.Contract.psg)
  in
  let comp_loc =
    match (Ast.find_func prog "alpha").fbody with
    | s :: _ -> s.Ast.loc
    | [] -> assert false
  in
  let callpath = site.Vertex.callpath @ [ site.Vertex.loc ] in
  let stale = Index.Resolver.create index in
  let before = Index.Resolver.find stale ~callpath ~loc:comp_loc in
  check_bool "unrefined: the callsite owns it" true
    (before = Some site.Vertex.id);
  match
    Inter.refine_indirect contraction.Contract.psg ~locals
      ~callsite:site.Vertex.id ~target:"alpha"
  with
  | None -> Alcotest.fail "refinement failed"
  | Some sub_root ->
      Index.index_contracted_subtree index sub_root;
      let fresh = Index.Resolver.create index in
      let after = Index.Resolver.find fresh ~callpath ~loc:comp_loc in
      check_bool "fresh resolver = find" true
        (after = Index.find index ~callpath ~loc:comp_loc);
      check_bool "spliced vertex" true
        (match after with
        | Some vid ->
            List.mem vid
              (Psg.subtree_vertices contraction.Contract.psg sub_root)
        | None -> false);
      check_bool "stale resolver keeps its run's answer" true
        (Index.Resolver.find stale ~callpath ~loc:comp_loc = before)

(* Recursive re-entries carry extra call frames the PSG never expanded;
   the resolver folds them exactly as [find] does. *)
let test_resolver_recursion () =
  let prog = recursion_program () in
  let _, _, _, index = static_of prog in
  let walk = ref [] in
  let tool =
    context_tool (fun (c : Instrument.ctx) ~label ->
        if label = Some "walk_work" then walk := c :: !walk)
  in
  ignore (run ~nprocs:2 ~tools:[ tool ] prog : Exec.result);
  let depth (c : Instrument.ctx) = List.length c.callpath in
  let deepest =
    List.fold_left (fun a c -> if depth c > depth a then c else a)
      (List.hd !walk) !walk
  in
  check_bool "re-entered" true (depth deepest >= 3);
  let resolver = Index.Resolver.create index in
  let find () =
    Index.Resolver.find resolver ~callpath:deepest.callpath ~loc:deepest.loc
  in
  let expected =
    Index.find index ~callpath:deepest.callpath ~loc:deepest.loc
  in
  check_bool "re-entry attributed" true (expected <> None);
  check_bool "miss = find" true (find () = expected);
  check_bool "hit = find" true (find () = expected)

(* Unknown contexts stay [None] on every lookup, and enough of them to
   grow the memo several times leave every answer, known ones included,
   where [find] puts it. *)
let test_resolver_unknown_loc () =
  let prog = ring_program () in
  let _, full, _, index = static_of prog in
  let known =
    List.map (fun v -> (v.Vertex.callpath, v.Vertex.loc)) (Psg.find_all (fun _ -> true) full)
  in
  let unknown =
    List.init 1000 (fun n ->
        ([ Loc.v ~file:"nope.mmp" ~line:n ], Loc.v ~file:"nope.mmp" ~line:(n + 1)))
  in
  let resolver = Index.Resolver.create index in
  let all_agree () =
    List.for_all
      (fun (callpath, loc) ->
        Index.Resolver.find resolver ~callpath ~loc
        = Index.find index ~callpath ~loc)
      (known @ unknown)
  in
  check_bool "first lookups = find" true (all_agree ());
  check_bool "repeated lookups = find" true (all_agree ());
  check_bool "unknown stays None" true
    (List.for_all
       (fun (callpath, loc) -> Index.Resolver.find resolver ~callpath ~loc = None)
       unknown)

(* profiler overhead is charged to the clocks *)
let test_profiler_overhead_positive () =
  let prog = ring_program ~niter:30 ~work:2_000_000 () in
  let bare = run ~nprocs:4 prog in
  let _, _, _, instrumented = profiled_run ~nprocs:4 prog in
  check_bool "overhead positive" true
    (instrumented.Exec.elapsed > bare.Exec.elapsed);
  check_bool "overhead below 20%" true
    (instrumented.Exec.elapsed < 1.2 *. bare.Exec.elapsed)

let () =
  Alcotest.run "profile"
    [
      ("perfvec", [ Alcotest.test_case "accumulate/merge" `Quick test_perfvec ]);
      ( "commrec",
        [
          Alcotest.test_case "p2p compression" `Quick test_commrec_compression;
          Alcotest.test_case "collective histogram" `Quick
            test_commrec_collectives;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "density" `Quick test_sampling_density;
          Alcotest.test_case "hot-vertex attribution" `Quick
            test_attribution_targets_hot_vertex;
          Alcotest.test_case "wait on MPI vertex" `Quick
            test_wait_recorded_on_mpi_vertex;
        ] );
      ( "interposition",
        [
          Alcotest.test_case "record_prob=0" `Quick test_record_prob_zero;
          Alcotest.test_case "record_prob=1 dependence" `Quick
            test_record_prob_one_dependence;
          Alcotest.test_case "icall resolution" `Quick test_icall_resolution;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "storage" `Quick test_storage_accounting;
          Alcotest.test_case "across ranks" `Quick test_across_ranks;
          Alcotest.test_case "overhead charged" `Quick
            test_profiler_overhead_positive;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "records intervals and messages" `Quick
            test_timeline_records;
          Alcotest.test_case "vertex-keyed compression" `Quick
            test_timeline_compression;
          Alcotest.test_case "truncation keeps blocked totals" `Quick
            test_timeline_truncation;
          Alcotest.test_case "zero overhead" `Quick
            test_timeline_zero_overhead;
        ] );
      ( "resolver",
        [
          Alcotest.test_case "registry contexts = Index.find" `Quick
            test_resolver_matches_find;
          Alcotest.test_case "call path separates one statement" `Quick
            test_resolver_call_path_matters;
          Alcotest.test_case "fresh after refinement" `Quick
            test_resolver_after_refinement;
          Alcotest.test_case "recursive re-entry folds" `Quick
            test_resolver_recursion;
          Alcotest.test_case "unknown contexts stay None" `Quick
            test_resolver_unknown_loc;
        ] );
    ]
