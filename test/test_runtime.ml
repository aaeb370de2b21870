(* Tests for the discrete-event MPI runtime: heap, network and cost
   models, message matching, collectives, waits, injection, determinism. *)

open Scalana_mlang
open Scalana_runtime
open Testutil

(* --- heap --- *)

let heap_sorted =
  qtest ~count:200 "heap pops sorted"
    QCheck2.Gen.(list_size (int_range 0 100) (float_bound_exclusive 1000.0))
    (fun keys ->
      let h = Heap.create () in
      (* payloads are the keys' indices, so popped payloads name keys *)
      let key = Array.of_list keys in
      Array.iteri (fun i _ -> Heap.push h key i) key;
      let rec drain acc =
        match Heap.pop_val h with
        | -1 -> List.rev acc
        | i -> drain (key.(i) :: acc)
      in
      let out = drain [] in
      List.length out = List.length keys
      && List.sort compare out = out)

let test_heap_empty () =
  let h = Heap.create () in
  check_int "pop none" (-1) (Heap.pop_val h);
  Heap.push h (Array.make 8 1.0) 7;
  check_int "value" 7 (Heap.pop_val h);
  check_int "empty again" (-1) (Heap.pop_val h)

(* --- pmu / cost model --- *)

let test_pmu_arith () =
  let a = { Pmu.tot_ins = 1.0; tot_lst_ins = 2.0; tot_cyc = 3.0; cache_miss = 4.0; fp_ins = 5.0 } in
  let s = Pmu.add_scaled a 2.0 a in
  check_float "ins" 3.0 s.Pmu.tot_ins;
  check_float "cyc" 9.0 s.Pmu.tot_cyc;
  check_bool "zero" true (Pmu.add Pmu.zero a = a);
  check_float "get" 4.0 (Pmu.get Pmu.Cache_miss a);
  check_int "metrics" 5
    (List.length
       (List.sort_uniq compare
          (List.map
             (fun m -> Pmu.get m a)
             [ Pmu.Tot_ins; Tot_lst_ins; Tot_cyc; Cache_miss; Fp_ins ])))

let test_costmodel () =
  (* counters in [Pmu.t] field order: tot_ins, tot_lst_ins, tot_cyc,
     cache_miss, fp_ins; then the seconds *)
  let cost ~locality =
    let counters = Array.make 6 0.0 in
    let speeds = Array.init 1 Costmodel.default.core_speed in
    Costmodel.comp_cost_into Costmodel.default ~speeds ~rank:0 ~flops:1000
      ~mem:500 ~ints:0 ~locality ~counters;
    (counters.(5), counters)
  in
  let sec, pmu = cost ~locality:1.0 in
  (* locality 1.0: no misses; cycles = ins / ipc *)
  check_float "no misses" 0.0 pmu.(3);
  close "cycles" 750.0 pmu.(2);
  close "seconds" (750.0 /. 2.5e9) sec;
  (* locality 0: every access misses, time grows *)
  let sec2, pmu2 = cost ~locality:0.0 in
  check_float "all miss" 500.0 pmu2.(3);
  check_bool "slower" true (sec2 > sec)

(* The cost arithmetic transcribed as it stood before the speed table:
   a polymorphic [max], a [core_speed] call and the seconds returned. *)
let reference_cost (t : Costmodel.t) ~rank ~flops ~mem ~ints ~locality =
  let flops = float_of_int (max 0 flops) in
  let mem = float_of_int (max 0 mem) in
  let ints = float_of_int (max 0 ints) in
  let misses = mem *. (1.0 -. locality) in
  let tot_ins = flops +. mem +. ints in
  let base_cycles = tot_ins /. t.ipc in
  let miss_cycles = misses *. t.cache_miss_penalty *. t.core_speed rank in
  let tot_cyc = base_cycles +. miss_cycles in
  let seconds = tot_cyc /. (t.ghz *. 1e9) in
  [| tot_ins; mem; tot_cyc; misses; flops; seconds |]

(* Seeded draws: counts of either sign, a locality in [0, 1] that is
   sometimes exactly 0 or 1, checked on every rank of a heterogeneous
   table that holds slow cores. *)
let test_costmodel_matches_reference () =
  let cost = Costmodel.heterogeneous () in
  let nprocs = 128 in
  let speeds = Array.init nprocs cost.core_speed in
  check_bool "table holds slow cores" true
    (Array.exists (fun s -> s > 1.2) speeds);
  let count = Prop.int_range (-1_000_000_000) 1_000_000_000 in
  let drawn = Prop.float_range 0.0 1.0 in
  let locality =
    {
      drawn with
      Prop.gen =
        (fun r ->
          match Prop.below r 8 with
          | 0 -> 0.0
          | 1 -> 1.0
          | _ -> drawn.gen r);
    }
  in
  let bits = Int64.bits_of_float in
  let counters = Array.make 6 Float.nan in
  Prop.check ~count:200 "comp_cost_into = reference, bit for bit"
    (Prop.pair (Prop.pair count count) (Prop.pair count locality))
    (fun ((flops, mem), (ints, locality)) ->
      List.for_all
        (fun rank ->
          Costmodel.comp_cost_into cost ~speeds ~rank ~flops ~mem ~ints
            ~locality ~counters;
          let expected =
            reference_cost cost ~rank ~flops ~mem ~ints ~locality
          in
          Array.for_all2
            (fun e c -> Int64.equal (bits e) (bits c))
            expected counters)
        (List.init nprocs Fun.id))

(* A compute statement of a bare run allocates nothing: the words a run
   of [2n] loop iterations allocates beyond a run of [n] are the
   statements' own, since everything else (compiling, per-rank state,
   fibers) is the same in both runs. *)
let test_bare_compute_allocates_nothing () =
  let prog =
    let open Expr.Infix in
    let b = Builder.create ~file:"alloc.mmp" ~name:"alloc" () in
    Builder.param b "n" 0;
    Builder.func b "main" (fun () ->
        [
          Builder.loop b ~label:"steps" ~var:"k" ~count:(p "n") (fun () ->
              [
                Builder.comp b ~label:"work" ~locality:0.7
                  ~flops:(i 4096 + v "k") ~mem:(i 2048 - v "k") ();
              ]);
        ]);
    Builder.program b
  in
  let cost = Costmodel.heterogeneous () in
  let measure n =
    let cfg = Exec.config ~nprocs:16 ~cost ~params:[ ("n", n) ] () in
    let w0 = Gc.minor_words () in
    let r = Exec.run ~cfg prog in
    let w1 = Gc.minor_words () in
    (r.Exec.events, w1 -. w0)
  in
  ignore (measure 10);
  let n = 5_000 in
  let events1, words1 = measure n and events2, words2 = measure (2 * n) in
  check_int "statements added" (16 * n) (events2 - events1);
  check_float "minor words per statement" 0.0
    ((words2 -. words1) /. float_of_int (events2 - events1))

(* An MPI statement of a bare run allocates no request, message or wake
   record, only what blocking its fiber takes: the continuation and the
   option holding it, a few words.  Counted per iteration of a 16-rank
   ring, from n against 2n iterations as above, plus the words allocated
   straight into the major heap: a column past 256 slots is, so a slot
   never recycled grows the columns there, out of [Gc.minor_words]'
   sight.  A record per request and message cost 59 to 89 words per
   iteration; the bound of 4 separates the two without depending on how
   many fields the compiler's continuation has. *)
let test_bare_mpi_allocates_no_record () =
  let ring body =
    let open Expr.Infix in
    let b = Builder.create ~file:"ring.mmp" ~name:"ring" () in
    Builder.param b "n" 0;
    Builder.param b "bytes" 0;
    Builder.func b "main" (fun () ->
        [
          Builder.loop b ~label:"steps" ~var:"k" ~count:(p "n") (fun () ->
              body b ~right:((rank + i 1) % np) ~left:((rank - i 1 + np) % np)
                ~bytes:(p "bytes"));
        ]);
    Builder.program b
  in
  let sendrecv =
    ring (fun b ~right ~left ~bytes ->
        [ Builder.sendrecv b ~dest:right ~sbytes:bytes ~src:left ~rbytes:bytes () ])
  and triple =
    ring (fun b ~right ~left ~bytes ->
        [
          Builder.irecv b ~src:left ~tag:(Expr.Int 1) ~bytes ~req:"r" ();
          Builder.isend b ~dest:right ~tag:(Expr.Int 1) ~bytes ~req:"s" ();
          Builder.waitall b ~reqs:[ "r"; "s" ];
        ])
  in
  let nprocs = 16 in
  let words prog ~bytes n =
    let cfg = Exec.config ~nprocs ~params:[ ("n", n); ("bytes", bytes) ] () in
    let _, promoted0, major0 = Gc.counters () in
    let w0 = Gc.minor_words () in
    ignore (Exec.run ~cfg prog);
    let w1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    w1 -. w0 +. (major1 -. major0 -. (promoted1 -. promoted0))
  in
  List.iter
    (fun (what, prog, bytes) ->
      ignore (words prog ~bytes 10);
      let n = 2_000 in
      let w1 = words prog ~bytes n and w2 = words prog ~bytes (2 * n) in
      let per = (w2 -. w1) /. float_of_int (nprocs * n) in
      check_bool
        (Printf.sprintf "%s: %.1f words per iteration, at most 4" what per)
        true (per <= 4.0))
    [
      ("sendrecv 8 B", sendrecv, 8);
      ("sendrecv 800 KB", sendrecv, 800_000);
      ("irecv+isend+waitall 8 B", triple, 8);
      ("irecv+isend+waitall 800 KB", triple, 800_000);
    ]

let test_heterogeneous_speed () =
  let cm = Costmodel.heterogeneous () in
  let speeds = List.init 128 cm.Costmodel.core_speed in
  let slow = List.filter (fun s -> s > 1.2) speeds in
  check_bool "some slow cores" true (List.length slow > 0);
  check_bool "minority slow" true (List.length slow < 32);
  check_bool "first four fast" true
    (List.for_all (fun s -> s < 1.2) [ cm.core_speed 0; cm.core_speed 1; cm.core_speed 2; cm.core_speed 3 ])

let test_network_model () =
  let net = Network.default in
  check_bool "latency floor" true (Network.transfer_time net 0 >= net.latency);
  check_bool "monotone" true
    (Network.transfer_time net 1_000_000 > Network.transfer_time net 1_000);
  check_bool "eager small" true (Network.is_eager net 100);
  check_bool "rendezvous large" true (not (Network.is_eager net 10_000_000));
  check_int "log2_ceil 1" 0 (Network.log2_ceil 1);
  check_int "log2_ceil 8" 3 (Network.log2_ceil 8);
  check_int "log2_ceil 9" 4 (Network.log2_ceil 9);
  let t8 = Network.collective_time net ~nprocs:8 ~bytes:8 (Ast.Allreduce { bytes = Expr.Int 8 }) in
  let t64 = Network.collective_time net ~nprocs:64 ~bytes:8 (Ast.Allreduce { bytes = Expr.Int 8 }) in
  check_bool "collectives grow with P" true (t64 > t8);
  match Network.collective_time net ~nprocs:8 ~bytes:8 (Ast.Send { dest = Expr.Int 0; tag = Expr.Int 0; bytes = Expr.Int 0 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "send is not a collective"

(* --- programs for matching semantics --- *)

let two_rank_program builder_body =
  let b = Builder.create ~file:"t.mmp" ~name:"t" () in
  Builder.func b "main" (fun () -> builder_body b);
  Builder.program b

let test_blocking_pair () =
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [
          Builder.branch b
            ~cond:(rank = i 0)
            ~else_:(fun () ->
              [ Builder.recv b ~src:(i 0) ~tag:(i 5) ~bytes:(i 1024) () ])
            (fun () ->
              [ Builder.send b ~dest:(i 1) ~tag:(i 5) ~bytes:(i 1024) () ]);
        ])
  in
  let r = run ~nprocs:2 prog in
  check_int "messages" 1 r.Exec.messages;
  check_bool "recv later than send" true
    (r.Exec.rank_finish.(1) >= r.Exec.rank_finish.(0))

let test_wildcard_recv () =
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [
          Builder.branch b
            ~cond:(rank = i 0)
            ~else_:(fun () -> [ Builder.recv b ~bytes:(i 64) () ])
            (fun () ->
              [ Builder.send b ~dest:(i 1) ~tag:(i 77) ~bytes:(i 64) () ]);
        ])
  in
  ignore (run ~nprocs:2 prog)

let test_tag_selectivity () =
  (* rank0 sends tag 1 then tag 2; rank1 receives tag 2 first, then 1 *)
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [
          Builder.branch b
            ~cond:(rank = i 0)
            ~else_:(fun () ->
              [
                Builder.recv b ~src:(i 0) ~tag:(i 2) ~bytes:(i 10) ();
                Builder.recv b ~src:(i 0) ~tag:(i 1) ~bytes:(i 10) ();
              ])
            (fun () ->
              [
                Builder.send b ~dest:(i 1) ~tag:(i 1) ~bytes:(i 10) ();
                Builder.send b ~dest:(i 1) ~tag:(i 2) ~bytes:(i 10) ();
              ]);
        ])
  in
  ignore (run ~nprocs:2 prog)

let test_deadlock_detection () =
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [ Builder.recv b ~src:((rank + i 1) % np) ~tag:(i 0) ~bytes:(i 8) () ])
  in
  match run ~nprocs:2 prog with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Exec.Deadlock _ -> ()

let test_collective_mismatch () =
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [
          Builder.branch b
            ~cond:(rank = i 0)
            ~else_:(fun () -> [ Builder.allreduce b ~bytes:(i 8) ])
            (fun () -> [ Builder.barrier b ]);
        ])
  in
  match run ~nprocs:2 prog with
  | _ -> Alcotest.fail "expected mismatch error"
  | exception Invalid_argument _ -> ()

let test_send_out_of_range () =
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [ Builder.send b ~dest:(i 9) ~tag:(i 0) ~bytes:(i 8) () ])
  in
  match run ~nprocs:2 prog with
  | _ -> Alcotest.fail "expected range error"
  | exception Invalid_argument _ -> ()

let test_self_send () =
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [
          Builder.isend b ~dest:rank ~tag:(i 3) ~bytes:(i 32) ~req:"s" ();
          Builder.recv b ~src:rank ~tag:(i 3) ~bytes:(i 32) ();
          Builder.wait b ~req:"s";
        ])
  in
  ignore (run ~nprocs:2 prog)

let test_nonblocking_overlap () =
  (* irecv posted before the matching send exists; wait collects it *)
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [
          Builder.irecv b ~src:((rank + i 1) % np) ~tag:(i 1) ~bytes:(i 256)
            ~req:"r" ();
          Builder.comp b ~flops:(i 200_000) ~mem:(i 100_000) ();
          Builder.send b
            ~dest:((rank - i 1 + np) % np)
            ~tag:(i 1) ~bytes:(i 256) ();
          Builder.wait b ~req:"r";
        ])
  in
  let r = run ~nprocs:4 prog in
  check_int "all messages" 4 r.Exec.messages

let test_wait_unposted_request () =
  let prog = two_rank_program (fun b -> [ Builder.wait b ~req:"nope" ]) in
  match run ~nprocs:2 prog with
  | _ -> Alcotest.fail "expected runtime error"
  | exception Exec.Runtime_error _ -> ()

let test_rendezvous_blocks_sender () =
  (* a rendezvous-sized send completes only when the receiver posts; the
     receiver delays by computing first *)
  let big = 1_000_000 in
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [
          Builder.branch b
            ~cond:(rank = i 0)
            ~else_:(fun () ->
              [
                Builder.comp b ~flops:(i 50_000_000) ~mem:(i 10_000_000) ();
                Builder.recv b ~src:(i 0) ~tag:(i 9) ~bytes:(i big) ();
              ])
            (fun () ->
              [ Builder.send b ~dest:(i 1) ~tag:(i 9) ~bytes:(i big) () ]);
        ])
  in
  let r = run ~nprocs:2 prog in
  (* sender waited for the receiver's compute phase *)
  check_bool "sender waited" true (r.Exec.wait_seconds.(0) > 0.001)

let test_eager_sender_not_blocked () =
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [
          Builder.branch b
            ~cond:(rank = i 0)
            ~else_:(fun () ->
              [
                Builder.comp b ~flops:(i 50_000_000) ~mem:(i 10_000_000) ();
                Builder.recv b ~src:(i 0) ~tag:(i 9) ~bytes:(i 100) ();
              ])
            (fun () ->
              [ Builder.send b ~dest:(i 1) ~tag:(i 9) ~bytes:(i 100) () ]);
        ])
  in
  let r = run ~nprocs:2 prog in
  check_bool "eager sender free" true (r.Exec.wait_seconds.(0) < 0.0001)

let test_collective_synchronizes () =
  (* rank-dependent work, then a barrier: everyone leaves together *)
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [
          Builder.comp b
            ~flops:((rank + i 1) * i 10_000_000)
            ~mem:((rank + i 1) * i 5_000_000)
            ();
          Builder.barrier b;
        ])
  in
  let r = run ~nprocs:4 prog in
  let finish0 = r.Exec.rank_finish.(0) and finish3 = r.Exec.rank_finish.(3) in
  close ~eps:1e-3 "finish together" finish0 finish3;
  (* the fast rank waited, the slow one did not *)
  check_bool "rank0 waited" true (r.Exec.wait_seconds.(0) > r.Exec.wait_seconds.(3))

let test_injection_accounting () =
  let prog = ring_program ~niter:5 () in
  let base = run ~nprocs:4 prog in
  let inject = Inject.create [ Inject.delay ~ranks:[ 2 ] 0.01 ] in
  let delayed = run ~nprocs:4 ~inject prog in
  (* 5 iterations x 0.01s *)
  close ~eps:0.05 "elapsed grows by 5x10ms"
    (base.Exec.elapsed +. 0.05)
    delayed.Exec.elapsed;
  check_bool "others wait" true (delayed.Exec.wait_seconds.(0) > 0.04)

let test_injection_every () =
  let inj = Inject.create [ Inject.delay ~every:2 1.0 ] in
  let loc = Loc.v ~file:"x" ~line:1 in
  let e1 = Inject.extra inj ~rank:0 ~loc in
  let e2 = Inject.extra inj ~rank:0 ~loc in
  let e3 = Inject.extra inj ~rank:0 ~loc in
  let e4 = Inject.extra inj ~rank:0 ~loc in
  check_float "1st skipped" 0.0 e1;
  check_float "2nd applies" 1.0 e2;
  check_float "3rd skipped" 0.0 e3;
  check_float "4th applies" 1.0 e4

let test_determinism () =
  let prog = Testutil.fig3_program () in
  let r1 = run ~nprocs:8 prog in
  let r2 = run ~nprocs:8 prog in
  check_float "same elapsed" r1.Exec.elapsed r2.Exec.elapsed;
  check_int "same events" r1.Exec.events r2.Exec.events;
  check_int "same messages" r1.Exec.messages r2.Exec.messages

let test_pmu_accumulation () =
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [
          Builder.loop b ~var:"k" ~count:(i 10) (fun () ->
              [ Builder.comp b ~flops:(i 1000) ~mem:(i 500) ~locality:1.0 () ]);
        ])
  in
  let r = run ~nprocs:2 prog in
  close "flops accumulated" 10_000.0 r.Exec.comp_pmu.(0).Pmu.fp_ins;
  close "lst accumulated" 5_000.0 r.Exec.comp_pmu.(0).Pmu.tot_lst_ins

let test_recursion_and_icall_run () =
  let r = run ~nprocs:4 (Testutil.recursion_program ()) in
  check_bool "finished" true (r.Exec.elapsed > 0.0)

let test_large_scale_smoke () =
  let prog = ring_program ~niter:2 ~work:1000 () in
  let r = run ~nprocs:2048 prog in
  check_int "all ranks" 2048 (Array.length r.Exec.rank_finish);
  check_int "messages" (2048 * 2) r.Exec.messages

let test_sendrecv_ring_rotation () =
  let prog = ring_program ~niter:1 () in
  let r = run ~nprocs:8 prog in
  (* one sendrecv per rank per iteration: one message each *)
  check_int "messages" 8 r.Exec.messages

let test_event_budget () =
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [
          Builder.loop b ~var:"k" ~count:(i 1_000_000) (fun () ->
              [ Builder.comp b ~flops:(i 1) ~mem:(i 0) () ]);
        ])
  in
  let cfg = Exec.config ~nprocs:2 ~max_events:10_000 () in
  match Exec.run ~cfg prog with
  | _ -> Alcotest.fail "expected event budget error"
  | exception Exec.Runtime_error _ -> ()



let test_all_collectives_run () =
  let prog =
    let open Expr.Infix in
    two_rank_program (fun b ->
        [
          Builder.comp b ~flops:((rank + i 1) * i 5_000_000) ~mem:(i 1_000_000) ();
          Builder.bcast b ~root:(i 1) ~bytes:(i 4096) ();
          Builder.reduce b ~root:(i 0) ~bytes:(i 4096) ();
          Builder.allgather b ~bytes:(i 512);
          Builder.alltoall b ~bytes:(i 256);
          Builder.allreduce b ~bytes:(i 8);
          Builder.barrier b;
        ])
  in
  let r = run ~nprocs:8 prog in
  (* collectives are synchronizing and send no point-to-point messages *)
  check_int "no p2p messages" 0 r.Exec.messages;
  let f0 = r.Exec.rank_finish.(0) and f7 = r.Exec.rank_finish.(7) in
  close ~eps:1e-3 "ranks finish together" f0 f7;
  (* six collectives: every rank joins each one *)
  check_bool "waits recorded on fast ranks" true (r.Exec.wait_seconds.(0) > 0.0)

let test_collective_cost_grows_with_bytes () =
  let mk bytes =
    let open Expr.Infix in
    two_rank_program (fun b -> [ Builder.alltoall b ~bytes:(i bytes) ])
  in
  let small = (run ~nprocs:8 (mk 64)).Exec.elapsed in
  let large = (run ~nprocs:8 (mk 4_000_000)).Exec.elapsed in
  check_bool "bigger payload, longer collective" true (large > small)

(* Random programs using only deadlock-free communication (collectives)
   plus local structure must always terminate, deterministically. *)
let safe_program_gen : Ast.program QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map
          (fun n ->
            `Comp (max 1 n))
          (int_bound 100_000);
        return `Barrier;
        map (fun b -> `Allreduce (max 1 b)) (int_bound 4096);
        map (fun b -> `Bcast (max 1 b)) (int_bound 4096);
      ]
  in
  let rec build depth =
    if depth = 0 then map (fun l -> `Leaf l) leaf
    else
      oneof
        [
          map (fun l -> `Leaf l) leaf;
          map2 (fun n body -> `Loop (1 + (n mod 3), body))
            (int_bound 2)
            (list_size (int_range 1 3) (build (depth - 1)));
          map2 (fun c body -> `Branch (c, body))
            (int_bound 3)
            (list_size (int_range 1 2) (build (depth - 1)));
        ]
  in
  map
    (fun shapes ->
      let b = Builder.create ~file:"rand.mmp" ~name:"rand" () in
      let open Expr.Infix in
      let fresh =
        let c = ref 0 in
        fun () -> incr c; Printf.sprintf "v%d" !c
      in
      let rec stmt = function
        | `Leaf (`Comp n) -> Builder.comp b ~flops:(i n) ~mem:(i Stdlib.(n / 2)) ()
        | `Leaf `Barrier -> Builder.barrier b
        | `Leaf (`Allreduce n) -> Builder.allreduce b ~bytes:(i n)
        | `Leaf (`Bcast n) -> Builder.bcast b ~bytes:(i n) ()
        | `Loop (n, body) ->
            Builder.loop b ~var:(fresh ()) ~count:(i n) (fun () ->
                List.map stmt body)
        | `Branch (c, body) ->
            (* rank-dependent branches are fine: collectives inside a
               rank-dependent branch could deadlock, so the condition
               here is rank-independent *)
            Builder.branch b ~cond:(np > i c) (fun () -> List.map stmt body)
      in
      Builder.func b "main" (fun () -> List.map stmt shapes);
      Builder.program b)
    (list_size (int_range 1 5) (build 2))

(* --- fault injection --- *)

let run_faulted ?(nprocs = 4) plan ~attempt program =
  let armed = Faults.arm plan ~nprocs ~attempt in
  let cfg = Exec.config ~nprocs ~faults:armed () in
  Exec.run ~cfg program

let test_fault_kill_strands_peers () =
  let prog = ring_program () in
  let plan = Faults.plan [ Faults.kill_rank ~rank:1 ~after:1e-6 () ] in
  let r = run_faulted ~nprocs:4 plan ~attempt:1 prog in
  check_bool "rank 1 killed" true (List.mem 1 r.Exec.killed_ranks);
  (* the ring couples every rank: the survivors end up stranded on the
     dead one instead of raising Deadlock *)
  check_bool "peers stranded, not deadlocked" true
    (r.Exec.stranded_ranks <> []);
  check_bool "killed rank not stranded" true
    (not (List.mem 1 r.Exec.stranded_ranks));
  (* without the fault the same program completes cleanly *)
  let clean = run ~nprocs:4 prog in
  check_bool "clean run unaffected" true
    (clean.Exec.killed_ranks = [] && clean.Exec.stranded_ranks = [])

let test_fault_kill_after_end_is_noop () =
  let prog = ring_program () in
  let clean = run ~nprocs:4 prog in
  let plan =
    Faults.plan
      [ Faults.kill_rank ~rank:1 ~after:(clean.Exec.elapsed +. 1.0) () ]
  in
  let r = run_faulted ~nprocs:4 plan ~attempt:1 prog in
  check_bool "no kill" true (r.Exec.killed_ranks = []);
  check_float "elapsed unchanged" clean.Exec.elapsed r.Exec.elapsed

let test_fault_clock_skew () =
  let prog = ring_program () in
  let clean = run ~nprocs:4 prog in
  let plan = Faults.plan [ Faults.clock_skew ~rank:0 ~factor:4.0 ] in
  let r = run_faulted ~nprocs:4 plan ~attempt:1 prog in
  check_bool "skewed run slower" true (r.Exec.elapsed > clean.Exec.elapsed);
  check_bool "nobody killed" true (r.Exec.killed_ranks = [])

let test_fault_determinism () =
  (* same (seed, nprocs, attempt): byte-identical simulation results,
     probabilistic faults included *)
  let prog = ring_program () in
  let plan =
    Faults.plan ~seed:11
      [
        Faults.kill_rank ~prob:0.5 ~rank:2 ~after:1e-4 ();
        Faults.clock_skew ~rank:3 ~factor:1.5;
      ]
  in
  let r1 = run_faulted ~nprocs:5 plan ~attempt:1 prog in
  let r2 = run_faulted ~nprocs:5 plan ~attempt:1 prog in
  check_float "elapsed equal" r1.Exec.elapsed r2.Exec.elapsed;
  check_int "events equal" r1.Exec.events r2.Exec.events;
  Alcotest.(check (list int))
    "kills equal"
    (List.sort compare r1.Exec.killed_ranks)
    (List.sort compare r2.Exec.killed_ranks);
  Alcotest.(check (list int))
    "stranded equal"
    (List.sort compare r1.Exec.stranded_ranks)
    (List.sort compare r2.Exec.stranded_ranks)

let test_fault_draws_keyed_on_attempt () =
  (* a probabilistic kill is re-drawn per attempt: across many attempts
     both outcomes occur, and each attempt's draw is stable *)
  let plan = Faults.plan ~seed:3 [ Faults.kill_rank ~prob:0.5 ~rank:0 ~after:0.1 () ] in
  let draw attempt =
    Faults.kill_time (Faults.arm plan ~nprocs:4 ~attempt) ~rank:0 <> None
  in
  let outcomes = List.init 32 (fun i -> draw (i + 1)) in
  check_bool "some attempts kill" true (List.mem true outcomes);
  check_bool "some attempts spare" true (List.mem false outcomes);
  List.iteri
    (fun i o ->
      check_bool
        (Printf.sprintf "attempt %d stable" (i + 1))
        o (draw (i + 1)))
    outcomes

let test_fault_poison_determinism () =
  let plan = Faults.plan ~seed:5 [ Faults.poison_metric ~prob:0.3 `Nan ] in
  let a = Faults.arm plan ~nprocs:8 ~attempt:1 in
  let b = Faults.arm plan ~nprocs:8 ~attempt:1 in
  let hits armed =
    List.concat_map
      (fun rank ->
        List.filter_map
          (fun vertex ->
            match Faults.poison armed ~rank ~vertex with
            | Some _ -> Some (rank, vertex)
            | None -> None)
          (List.init 50 Fun.id))
      (List.init 8 Fun.id)
  in
  let ha = hits a and hb = hits b in
  check_bool "some vertices poisoned" true (ha <> []);
  check_bool "not all vertices poisoned" true (List.length ha < 400);
  check_bool "draws identical" true (ha = hb);
  (* drop_scale answers from the plan alone *)
  let dplan = Faults.plan [ Faults.drop_scale 16 ] in
  check_bool "dropped" true (Faults.drops_scale dplan ~nprocs:16);
  check_bool "others kept" true (not (Faults.drops_scale dplan ~nprocs:8))

let random_programs_terminate =
  qtest ~count:60 "random collective-safe programs terminate deterministically"
    safe_program_gen (fun prog ->
      (match Validate.run prog with Ok () -> () | Error _ -> ());
      let r1 = run ~nprocs:5 prog in
      let r2 = run ~nprocs:5 prog in
      r1.Exec.elapsed = r2.Exec.elapsed && r1.Exec.events = r2.Exec.events)

(* --- engine equivalence ---

   The compiled struct-of-arrays engine must be observably identical to
   the reference interpreter it replaced: same clocks, same PMU sums,
   same message counts, same kill/strand sets, to the last bit.  These
   digests were captured from the reference engine over the full
   application registry, clean and under a fault plan, at three scales;
   a changed digest means simulated behavior changed. *)

let equivalence_fault_plan =
  Faults.plan ~seed:7
    [
      Faults.kill_rank ~rank:1 ~after:1e-5 ();
      Faults.clock_skew ~rank:0 ~factor:1.7;
    ]

let reference_digests =
  [
    ("bt", 4, "9e5609946655375715b6281d702a6323", "0e03162b640a6d846c205801a2748405");
    ("bt", 16, "cc8e411225371251c18272b5b958a1e8", "b8692e2ad4c4e7ec53c75cc0ef3ae45e");
    ("bt", 64, "5d985beb8fd8d0df2d38bffe38a27e1e", "313fd500dd17a440bbac871f530f7838");
    ("cg", 4, "258dd3782cac585ff928ec51acea00a3", "ada52ac5527c397abfe5d9845ee4d755");
    ("cg", 16, "ad5efb2f8b8cea98fbe1987092aa63a0", "fbecfda029ea52adca1cbe4e4a4f3d69");
    ("cg", 64, "8a897d9b03040cac9473f2bccc4517d0", "485621f408b5f110bedc1730b8cac7d9");
    ("ep", 4, "95a7a59a3cce7a1d827601af8f83d682", "5606567496a434e86d1859e9d4e19144");
    ("ep", 16, "d59517df22fda4a02ebf05c9f219af68", "229b1558cb00d7ec7bc0a4f99b217e17");
    ("ep", 64, "b7734040d3bdcf2f98c493a184ede3c9", "c3188863575c2409af137970a9ea41bc");
    ("ft", 4, "ba323411bab0ccaf0d545e505299b526", "92999261769dfdb717686ce4dc316a96");
    ("ft", 16, "562efe7457e26a0cdf2f16d041011794", "c0ce820ea705ed6d465e6314fa5d5d32");
    ("ft", 64, "5596323b5867fb55fc2d20acf6b5b1e0", "fec8246fdfa9283a003e838b0dbabaca");
    ("mg", 4, "b01a6502b18a104e3e23f33ceba1255e", "68939202cfd4bb0c0821a0675d0314ea");
    ("mg", 16, "a381ef5bce7305b55d130cc246e188c1", "48fa98aa8182d71ab014e06878be68a3");
    ("mg", 64, "3c79019a02c14d91f87eaaf4e57a3666", "49f3878f7ed7f78ab02fa97d8ed718fa");
    ("sp", 4, "87abcb04b71035637fad676e1bff36b0", "0e03162b640a6d846c205801a2748405");
    ("sp", 16, "b4576fdea2fea861052f76f269e5de6a", "b8692e2ad4c4e7ec53c75cc0ef3ae45e");
    ("sp", 64, "92c7d943b11bdf205c44cf4d2d709b28", "313fd500dd17a440bbac871f530f7838");
    ("lu", 4, "d827c164e70095c1d0135c9bbb1d4f44", "fccebd09180ccf7c2f037910ef44a0d0");
    ("lu", 16, "8b1493e94a04318d0713fee25bd36c6b", "a86c52d7cbbd08581279438ecc021331");
    ("lu", 64, "d4ac9f5f611ffcdf8a2241d8eb2cb934", "7d636712c23326114874e238316eaa8e");
    ("is", 4, "ab24dfb4e984a02f5660195f610ac61c", "cc4b01847aeacc4d69f8fa684b07887a");
    ("is", 16, "5b220b25624d8ac8db39d901e5210c80", "70ea50a1770ddcddf197fcd8c950f138");
    ("is", 64, "9ed7a03715dcf436b2cbee882c653eda", "e8a4352464232737cfea531d6d9ccc55");
    ("sst", 4, "54cb4b029bfc982f82998eb30165e5e9", "0f22dedeb3dfe4c3095914260622006f");
    ("sst", 16, "8a42da52ffb267c125a0928b75c288f3", "8f6370535399bafdf99faa348886b694");
    ("sst", 64, "4440d3179a35a83e39da2c0d7d5aa2e3", "cc7683f5cc42eac2e4716d8a87a25d14");
    ("nekbone", 4, "879dd1e00e794e3c39e310a2b0fa1dbd", "b3fbbfa2f36000ecaa4aad0b8e08aee9");
    ("nekbone", 16, "b2432bc6e05b8b731661ac4ec34afd51", "6717f045a8b7ec27ffa31b0de173942e");
    ("nekbone", 64, "b9006b65290b085686a72124cb0111f0", "e62aac40e3c4904a216782012c1a549d");
    ("zeusmp", 4, "96578cf6f769266d7e6ae859102c0f04", "9b939b4b3ba458dcb509561d36739c0a");
    ("zeusmp", 16, "6b48e16fc247c3bbe2e7e6b5bb5e4768", "d28cfec99ecebc2542b66361d3027cdb");
    ("zeusmp", 64, "4965296d2984b55a6a0080680bdb9634", "f3242140afbaf3ee93df86063c345b6c");
  ]

let digest_result (r : Exec.result) =
  Digest.to_hex (Digest.string (Marshal.to_string r []))

let test_engine_reference_digests () =
  List.iter
    (fun (name, np, clean_d, faulted_d) ->
      let e = Scalana_apps.Registry.find name in
      let cfg = Exec.config ~nprocs:np ~cost:e.cost () in
      let clean = Exec.run ~cfg (e.make ()) in
      check_string
        (Printf.sprintf "%s np=%d clean" name np)
        clean_d (digest_result clean);
      let armed = Faults.arm equivalence_fault_plan ~nprocs:np ~attempt:1 in
      let fcfg = Exec.config ~nprocs:np ~cost:e.cost ~faults:armed () in
      let faulted = Exec.run ~cfg:fcfg (e.make ()) in
      check_string
        (Printf.sprintf "%s np=%d faulted" name np)
        faulted_d (digest_result faulted))
    reference_digests

(* --- request and message lifetimes ---

   One program that holds requests and messages in every way the engine
   must keep apart: an [isend] slot re-posted without a wait (eager and
   rendezvous), a request waited twice, wildcard receives matched out of
   post order, a [waitall] over completed and pending requests,
   self-sends, requests a returning function never waited on, and
   blocking exchanges at both protocol sizes.  Its bare and profiled
   results at np 4 and 16, clean and with rank 1 killed while its
   requests are in flight, are pinned by digest, as is the deadlock
   report of a run whose receives never match. *)

let lifetimes_program () =
  let open Expr.Infix in
  let b = Builder.create ~file:"lifetimes.mmp" ~name:"lifetimes" () in
  let right = (rank + i 1) % np and left = (rank - i 1 + np) % np in
  let right2 = (rank + i 2) % np and left2 = (rank - i 2 + np) % np in
  let big = i 800_000 in
  let skew = i 20_000 * ((rank * i 7) % i 5) in
  Builder.func b "halo" (fun () ->
      [
        Builder.isend b ~dest:left ~tag:(i 50) ~bytes:(i 64) ~req:"h" ();
        Builder.irecv b ~src:right ~tag:(i 50) ~bytes:(i 64) ~req:"g" ();
        Builder.wait b ~req:"g";
        Builder.isend b ~dest:right ~tag:(i 51) ~bytes:big ~req:"z" ();
        Builder.recv b ~src:left ~tag:(i 51) ~bytes:big ();
      ]);
  Builder.func b "main" (fun () ->
      [
        Builder.loop b ~var:"k" ~count:(i 3) (fun () ->
            [ Builder.isend b ~dest:right ~tag:(i 10) ~bytes:(i 64) ~req:"e" () ]);
        Builder.loop b ~var:"k" ~count:(i 3) (fun () ->
            [ Builder.recv b ~src:left ~tag:(i 10) ~bytes:(i 64) () ]);
        Builder.loop b ~var:"k" ~count:(i 2) (fun () ->
            [ Builder.isend b ~dest:right ~tag:(i 11) ~bytes:big ~req:"z" () ]);
        Builder.comp b ~label:"overlap" ~flops:(i 400_000 + skew)
          ~mem:(i 100_000) ();
        Builder.loop b ~var:"k" ~count:(i 2) (fun () ->
            [ Builder.recv b ~src:left ~tag:(i 11) ~bytes:big () ]);
        Builder.wait b ~req:"z";
        Builder.irecv b ~src:right ~tag:(i 12) ~bytes:(i 128) ~req:"w" ();
        Builder.send b ~dest:left ~tag:(i 12) ~bytes:(i 128) ();
        Builder.wait b ~req:"w";
        Builder.comp b ~label:"between" ~flops:(i 1_000) ~mem:(i 500) ();
        Builder.wait b ~req:"w";
        Builder.irecv b ~src:left ~tag:(i 21) ~bytes:(i 64) ~req:"x" ();
        Builder.irecv b ~tag:(i 20) ~bytes:(i 64) ~req:"y1" ();
        Builder.irecv b ~tag:(i 20) ~bytes:(i 64) ~req:"y2" ();
        Builder.send b ~dest:right2 ~tag:(i 20) ~bytes:(i 64) ();
        Builder.comp b ~label:"skew" ~flops:skew ~mem:(i 1_000) ();
        Builder.send b ~dest:left2 ~tag:(i 20) ~bytes:(i 64) ();
        Builder.send b ~dest:right ~tag:(i 21) ~bytes:(i 64) ();
        Builder.wait b ~req:"y2";
        Builder.wait b ~req:"x";
        Builder.wait b ~req:"y1";
        Builder.isend b ~dest:right ~tag:(i 30) ~bytes:(i 32) ~req:"c1" ();
        Builder.irecv b ~src:left ~tag:(i 31) ~bytes:(i 32) ~req:"c2" ();
        Builder.isend b ~dest:left ~tag:(i 32) ~bytes:big ~req:"c3" ();
        Builder.irecv b ~src:right ~tag:(i 32) ~bytes:big ~req:"c4" ();
        Builder.irecv b ~src:left ~tag:(i 30) ~bytes:(i 32) ~req:"c5" ();
        Builder.comp b ~label:"pending" ~flops:(i 50_000 + skew) ~mem:(i 5_000) ();
        Builder.send b ~dest:right ~tag:(i 31) ~bytes:(i 32) ();
        Builder.waitall b ~reqs:[ "c1"; "c2"; "c3"; "c4"; "c5" ];
        Builder.isend b ~dest:rank ~tag:(i 40) ~bytes:(i 16) ~req:"s" ();
        Builder.recv b ~src:rank ~tag:(i 40) ~bytes:(i 16) ();
        Builder.wait b ~req:"s";
        Builder.isend b ~dest:rank ~tag:(i 41) ~bytes:big ~req:"s" ();
        Builder.irecv b ~src:rank ~tag:(i 41) ~bytes:big ~req:"t" ();
        Builder.waitall b ~reqs:[ "s"; "t" ];
        Builder.loop b ~var:"k" ~count:(i 2) (fun () -> [ Builder.call b "halo" ]);
        Builder.sendrecv b ~dest:right ~sbytes:(i 8) ~src:left ~rbytes:(i 8) ();
        Builder.sendrecv b ~dest:right ~sbytes:big ~src:left ~rbytes:big ();
        Builder.allreduce b ~bytes:(i 8);
        Builder.send b ~dest:right ~tag:(i 60) ~bytes:(i 64) ();
        Builder.recv b ~bytes:(i 64) ();
        Builder.barrier b;
      ]);
  Builder.program b

(* Rank 1 dies at the first statement after its "overlap" block: its two
   rendezvous sends are not matched yet, and rank 0's two to it are
   never received. *)
let lifetimes_kill = Faults.plan [ Faults.kill_rank ~rank:1 ~after:2e-5 () ]

let lifetime_digests =
  [
    ("np=4 bare", "9d7c47d65352894b57b1ecefb57f4484");
    ("np=4 profiled", "b33168fc8c787bb43af227683ecd7e50");
    ("np=4 killed bare", "c7582e2108cf835d44768e440affb187");
    ("np=4 killed profiled", "3452ed5ce9252781700b5abcd890ef18");
    ("np=16 bare", "3159946af35f7a7b3e3d9e308626228b");
    ("np=16 profiled", "b988379ffc9facd089d186723d6c876e");
    ("np=16 killed bare", "0cf1d256a3504a1201373ad1c8f61bbc");
    ("np=16 killed profiled", "75fb0b3ce7451e3273b398447b72da7a");
  ]

(* Every rank sends one message no one receives, posts an exact and a
   wildcard-source receive no one sends to, after an exchange that left
   tombstones in both queues. *)
let unmatched_program () =
  let open Expr.Infix in
  let b = Builder.create ~file:"unmatched.mmp" ~name:"unmatched" () in
  Builder.func b "main" (fun () ->
      [
        Builder.sendrecv b
          ~dest:((rank + i 1) % np)
          ~sbytes:(i 8)
          ~src:((rank - i 1 + np) % np)
          ~rbytes:(i 8) ();
        Builder.send b ~dest:((rank + i 1) % np) ~tag:(i 9) ~bytes:(i 8) ();
        Builder.isend b ~dest:((rank + i 2) % np) ~tag:(i 8) ~bytes:(i 800_000)
          ~req:"q" ();
        Builder.irecv b ~src:((rank + i 1) % np) ~tag:(i 5) ~bytes:(i 8)
          ~req:"a" ();
        Builder.recv b ~tag:(i 7) ~bytes:(i 8) ();
      ]);
  Builder.program b

let unmatched_report =
  String.concat ""
    [
      "ranks {0,1,2,3} blocked at end of run\n";
      "  rank 0: recv posted at unmatched.mmp:6 (src=1 tag=5)\n";
      "  rank 0: recv posted at unmatched.mmp:7 (src=any tag=7)\n";
      "  rank 1: recv posted at unmatched.mmp:6 (src=2 tag=5)\n";
      "  rank 1: recv posted at unmatched.mmp:7 (src=any tag=7)\n";
      "  rank 2: recv posted at unmatched.mmp:6 (src=3 tag=5)\n";
      "  rank 2: recv posted at unmatched.mmp:7 (src=any tag=7)\n";
      "  rank 3: recv posted at unmatched.mmp:6 (src=0 tag=5)\n";
      "  rank 3: recv posted at unmatched.mmp:7 (src=any tag=7)\n";
      "  rank 0: unconsumed msg from 3 tag 9 (unmatched.mmp:4)\n";
      "  rank 0: unconsumed msg from 2 tag 8 (unmatched.mmp:5)\n";
      "  rank 1: unconsumed msg from 3 tag 8 (unmatched.mmp:5)\n";
      "  rank 1: unconsumed msg from 0 tag 9 (unmatched.mmp:4)\n";
      "  rank 2: unconsumed msg from 1 tag 9 (unmatched.mmp:4)\n";
      "  rank 2: unconsumed msg from 0 tag 8 (unmatched.mmp:5)\n";
      "  rank 3: unconsumed msg from 1 tag 8 (unmatched.mmp:5)\n";
      "  rank 3: unconsumed msg from 2 tag 9 (unmatched.mmp:4)\n";
    ]

(* A profiled case pins the run's profile with its result: the
   dependences the hooks read from matched messages become its comm
   records. *)
let test_request_lifetimes_pinned () =
  let prog = lifetimes_program () in
  let static = Scalana.Static.analyze prog in
  let got =
    List.concat_map
      (fun np ->
        let bare faults =
          digest_result (Exec.run ~cfg:(Exec.config ~nprocs:np ~faults ()) prog)
        in
        let profiled faults =
          let r = Scalana.Prof.run ?faults static ~nprocs:np () in
          Digest.to_hex
            (Digest.string
               (Marshal.to_string (r.Scalana.Prof.result, r.Scalana.Prof.data) []))
        in
        [
          (Printf.sprintf "np=%d bare" np, bare Faults.none);
          (Printf.sprintf "np=%d profiled" np, profiled None);
          ( Printf.sprintf "np=%d killed bare" np,
            bare (Faults.arm lifetimes_kill ~nprocs:np ~attempt:1) );
          ( Printf.sprintf "np=%d killed profiled" np,
            profiled (Some lifetimes_kill) );
        ])
      [ 4; 16 ]
  in
  List.iter2
    (fun (what, expected) (what', d) ->
      check_string "case" what what';
      check_string what expected d)
    lifetime_digests got;
  match run ~nprocs:4 (unmatched_program ()) with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Exec.Deadlock report ->
      check_string "deadlock report" unmatched_report report

(* --- elastic membership and recovery --- *)

(* No membership change fires at this scale: one epoch. *)
let is_static plan ~nprocs =
  List.length (fst (Elastic.membership plan ~nprocs)) <= 1

let test_elastic_membership_shrink () =
  let plan =
    Elastic.plan ~total_iters:12 [ Elastic.shrink_at ~iter:6 ~rank:1 ]
  in
  let epochs, n_ranks = Elastic.membership plan ~nprocs:4 in
  check_int "distinct ranks" 4 n_ranks;
  check_bool "not static" false (is_static plan ~nprocs:4);
  match epochs with
  | [ e0; e1 ] ->
      check_int "e0 lo" 0 e0.Elastic.e_lo;
      check_int "e0 hi" 6 e0.Elastic.e_hi;
      check_bool "e0 members" true (e0.Elastic.e_members = [| 0; 1; 2; 3 |]);
      check_bool "e0 unchanged" true
        (e0.Elastic.e_left = [] && e0.Elastic.e_joined = []);
      check_int "e1 lo" 6 e1.Elastic.e_lo;
      check_int "e1 hi" 12 e1.Elastic.e_hi;
      check_bool "e1 members" true (e1.Elastic.e_members = [| 0; 2; 3 |]);
      check_bool "e1 left" true (e1.Elastic.e_left = [ 1 ])
  | es -> Alcotest.failf "expected 2 epochs, got %d" (List.length es)

let test_elastic_membership_grow () =
  let plan =
    Elastic.plan ~total_iters:12 [ Elastic.grow_at ~iter:6 ~ranks:2 ]
  in
  let epochs, n_ranks = Elastic.membership plan ~nprocs:2 in
  (* joiners get the fresh global ids nprocs, nprocs+1, ... *)
  check_int "distinct ranks" 4 n_ranks;
  check_int "total_ranks" 4 (snd (Elastic.membership plan ~nprocs:2));
  match epochs with
  | [ _; e1 ] ->
      check_bool "e1 members" true (e1.Elastic.e_members = [| 0; 1; 2; 3 |]);
      check_bool "e1 joined" true (e1.Elastic.e_joined = [ 2; 3 ])
  | es -> Alcotest.failf "expected 2 epochs, got %d" (List.length es)

let test_elastic_membership_noop_events () =
  (* out-of-range boundaries and leaves of absent ranks fire nothing, so
     one plan stays valid (and here: static) at every scale *)
  let plan =
    Elastic.plan ~total_iters:10
      [
        Elastic.shrink_at ~iter:5 ~rank:9;
        Elastic.shrink_at ~iter:0 ~rank:0;
        Elastic.shrink_at ~iter:10 ~rank:0;
      ]
  in
  check_bool "static at np=4" true (is_static plan ~nprocs:4);
  let epochs, n_ranks = Elastic.membership plan ~nprocs:4 in
  check_int "one epoch" 1 (List.length epochs);
  check_int "distinct ranks" 4 n_ranks;
  (* ...but the same plan does fire where the rank exists *)
  check_bool "fires at np=16" false (is_static plan ~nprocs:16)

let test_elastic_recovery_semantics () =
  let plan =
    Elastic.plan ~total_iters:12 [ Elastic.shrink_at ~iter:6 ~rank:1 ]
  in
  let cost = Costmodel.default in
  let members = [| 0; 2; 3 |] in
  let finish = [ (0, 1.0); (1, 1.1); (2, 1.2); (3, 0.9) ] in
  let r =
    Elastic.recover plan ~cost ~nprocs:4 ~iter:6 ~left:[ 1 ] ~joined:[]
      ~members ~finish
  in
  (* detection jitter is bounded: within [timeout, 2*timeout] *)
  check_bool "detect window" true
    (r.Elastic.r_detect >= Elastic.detect_timeout
    && r.Elastic.r_detect <= 2.0 *. Elastic.detect_timeout);
  check_bool "agree positive" true (r.Elastic.r_agree > 0.0);
  check_bool "repartition positive" true (r.Elastic.r_repartition > 0.0);
  (* every survivor stalls until the common r_end *)
  check_int "three stalls" 3 (List.length r.Elastic.r_stalls);
  List.iter
    (fun (g, stall) ->
      close
        (Printf.sprintf "stall of rank %d" g)
        (r.Elastic.r_end -. List.assoc g finish)
        stall)
    r.Elastic.r_stalls;
  (* the departed rank never appears among the stalls *)
  check_bool "no stall for departed" true
    (not (List.mem_assoc 1 r.Elastic.r_stalls));
  (* grows have no detection window *)
  let g =
    Elastic.recover plan ~cost ~nprocs:4 ~iter:6 ~left:[]
      ~joined:[ 4; 5 ]
      ~members:[| 0; 1; 2; 3; 4; 5 |]
      ~finish
  in
  check_float "grow detect" 0.0 g.Elastic.r_detect

let test_elastic_recovery_deterministic () =
  let plan =
    Elastic.plan ~total_iters:12 [ Elastic.shrink_at ~iter:6 ~rank:1 ]
  in
  let cost = Costmodel.default in
  let run () =
    Elastic.recover plan ~cost ~nprocs:8 ~iter:6 ~left:[ 1 ] ~joined:[]
      ~members:[| 0; 2; 3; 4; 5; 6; 7 |]
      ~finish:(List.init 8 (fun g -> (g, 1.0 +. (0.01 *. float_of_int g))))
  in
  check_bool "same plan, same recovery" true
    (Digest.string (Marshal.to_string (run ()) [])
    = Digest.string (Marshal.to_string (run ()) []))

let test_elastic_compress_ranks () =
  check_string "empty" "none" (Elastic.compress_ranks [||]);
  check_string "single" "3" (Elastic.compress_ranks [| 3 |]);
  check_string "ranges" "0-3,5,7-8"
    (Elastic.compress_ranks [| 0; 1; 2; 3; 5; 7; 8 |])

(* clock0 offsets the whole simulation: every event of an epoch run at
   clock0=c is the clock0=0 run shifted by exactly c *)
let test_exec_clock0_shifts () =
  let prog = ring_program ~niter:4 () in
  let at c =
    Exec.run ~cfg:(Exec.config ~nprocs:4 ~clock0:c ()) prog
  in
  let r0 = at 0.0 and r5 = at 5.0 in
  close "elapsed shifted" (r0.Exec.elapsed +. 5.0) r5.Exec.elapsed;
  (* per-rank derived totals (durations, not absolute clocks) match *)
  Array.iteri
    (fun i w -> close (Printf.sprintf "wait rank %d" i) w r5.Exec.wait_seconds.(i))
    r0.Exec.wait_seconds;
  Array.iteri
    (fun i w -> close (Printf.sprintf "comp rank %d" i) w r5.Exec.comp_seconds.(i))
    r0.Exec.comp_seconds

(* --- hostile numbers --- *)

(* Unusable values are refused where they are made, with
   [Invalid_argument] (exit 2 at the command line): a non-finite or
   negative delay stalls or rewinds a rank's clock, [every = 0] is a zero
   modulus, and a non-positive skew factor makes computation take no or
   negative time. *)
let rejects what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

let test_inject_rejects_bad_seconds () =
  List.iter
    (fun d ->
      rejects (Printf.sprintf "delay %g" d) (fun () -> Inject.delay d))
    [ Float.nan; Float.infinity; Float.neg_infinity; -1.0; -1e-9 ];
  ignore (Inject.delay 0.0 : Inject.rule);
  ignore (Inject.delay 0.5 : Inject.rule)

let test_inject_rejects_bad_every () =
  List.iter
    (fun every ->
      rejects (Printf.sprintf "every %d" every) (fun () ->
          Inject.delay ~every 0.001))
    [ 0; -1; min_int ];
  ignore (Inject.delay ~every:1 0.001 : Inject.rule)

let test_fault_skew_rejects_bad_factor () =
  List.iter
    (fun factor ->
      rejects (Printf.sprintf "factor %g" factor) (fun () ->
          Faults.clock_skew ~rank:0 ~factor))
    [ 0.0; -2.0; Float.nan; Float.infinity; Float.neg_infinity ];
  ignore (Faults.clock_skew ~rank:0 ~factor:0.5 : Faults.fault)

let () =
  Alcotest.run "runtime"
    [
      ( "heap",
        [
          heap_sorted;
          Alcotest.test_case "empty/one" `Quick test_heap_empty;
        ] );
      ( "models",
        [
          Alcotest.test_case "pmu arithmetic" `Quick test_pmu_arith;
          Alcotest.test_case "cost model" `Quick test_costmodel;
          Alcotest.test_case "heterogeneous cores" `Quick
            test_heterogeneous_speed;
          Alcotest.test_case "network" `Quick test_network_model;
          Alcotest.test_case "cost model = reference formula" `Quick
            test_costmodel_matches_reference;
          Alcotest.test_case "bare compute allocates nothing" `Quick
            test_bare_compute_allocates_nothing;
          Alcotest.test_case "bare MPI statements allocate no record" `Quick
            test_bare_mpi_allocates_no_record;
        ] );
      ( "matching",
        [
          Alcotest.test_case "blocking pair" `Quick test_blocking_pair;
          Alcotest.test_case "wildcard recv" `Quick test_wildcard_recv;
          Alcotest.test_case "tag selectivity" `Quick test_tag_selectivity;
          Alcotest.test_case "self send" `Quick test_self_send;
          Alcotest.test_case "nonblocking overlap" `Quick
            test_nonblocking_overlap;
          Alcotest.test_case "rendezvous blocks sender" `Quick
            test_rendezvous_blocks_sender;
          Alcotest.test_case "eager sender not blocked" `Quick
            test_eager_sender_not_blocked;
          Alcotest.test_case "sendrecv ring" `Quick test_sendrecv_ring_rotation;
        ] );
      ( "errors",
        [
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "collective mismatch" `Quick
            test_collective_mismatch;
          Alcotest.test_case "send out of range" `Quick test_send_out_of_range;
          Alcotest.test_case "wait unposted" `Quick test_wait_unposted_request;
          Alcotest.test_case "event budget" `Quick test_event_budget;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "collective synchronizes" `Quick
            test_collective_synchronizes;
          Alcotest.test_case "injection accounting" `Quick
            test_injection_accounting;
          Alcotest.test_case "injection every-n" `Quick test_injection_every;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "pmu accumulation" `Quick test_pmu_accumulation;
          Alcotest.test_case "recursion and icall" `Quick
            test_recursion_and_icall_run;
          Alcotest.test_case "2048 ranks smoke" `Quick test_large_scale_smoke;
          Alcotest.test_case "all collectives" `Quick test_all_collectives_run;
          Alcotest.test_case "collective payload cost" `Quick
            test_collective_cost_grows_with_bytes;
          random_programs_terminate;
          Alcotest.test_case "injection rejects bad seconds" `Quick
            test_inject_rejects_bad_seconds;
          Alcotest.test_case "injection rejects every < 1" `Quick
            test_inject_rejects_bad_every;
        ] );
      ( "faults",
        [
          Alcotest.test_case "kill strands peers" `Quick
            test_fault_kill_strands_peers;
          Alcotest.test_case "late kill is noop" `Quick
            test_fault_kill_after_end_is_noop;
          Alcotest.test_case "clock skew" `Quick test_fault_clock_skew;
          Alcotest.test_case "clock skew rejects bad factors" `Quick
            test_fault_skew_rejects_bad_factor;
          Alcotest.test_case "determinism" `Quick test_fault_determinism;
          Alcotest.test_case "draws keyed on attempt" `Quick
            test_fault_draws_keyed_on_attempt;
          Alcotest.test_case "poison determinism" `Quick
            test_fault_poison_determinism;
        ] );
      ( "engine",
        [
          Alcotest.test_case "reference digests (full registry)" `Quick
            test_engine_reference_digests;
          Alcotest.test_case "request lifetimes pinned" `Quick
            test_request_lifetimes_pinned;
        ] );
      ( "elastic",
        [
          Alcotest.test_case "membership shrink" `Quick
            test_elastic_membership_shrink;
          Alcotest.test_case "membership grow" `Quick
            test_elastic_membership_grow;
          Alcotest.test_case "no-op events fire nothing" `Quick
            test_elastic_membership_noop_events;
          Alcotest.test_case "recovery semantics" `Quick
            test_elastic_recovery_semantics;
          Alcotest.test_case "recovery determinism" `Quick
            test_elastic_recovery_deterministic;
          Alcotest.test_case "compress ranks" `Quick
            test_elastic_compress_ranks;
          Alcotest.test_case "clock0 shifts the run" `Quick
            test_exec_clock0_shifts;
        ] );
    ]
