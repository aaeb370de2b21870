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

(* --- performance vectors (profile rows) --- *)

let test_perfvec () =
  let v = Profdata.create ~nprocs:2 in
  Profdata.add_sampled v ~rank:1 ~vertex:3 ~time:0.5 ~samples:2 ~pmu:Pmu.zero;
  Profdata.add_sampled v ~rank:1 ~vertex:3 ~time:0.25 ~samples:1 ~pmu:Pmu.zero;
  Profdata.add_wait v ~rank:1 ~vertex:3 ~wait:0.1;
  let row data =
    match Profdata.row data ~vertex:3 with
    | Some r -> r
    | None -> Alcotest.fail "vertex 3 has no row"
  in
  let r = row v in
  check_float "time" 0.75 r.times.(1);
  check_int "samples" 3 r.samples.(1);
  check_float "wait" 0.1 r.waits.(1);
  check_int "calls" 1 r.calls.(1);
  check_bool "rank 0 unreported" false (Profdata.reported r ~rank:0);
  Alcotest.(check (list int)) "one row" [ 3 ] (Profdata.touched_vertices v);
  (* two epochs' rank 1 land on global rank 0 *)
  let dst = Profdata.create ~nprocs:2 in
  Profdata.merge_renumbered ~into:dst ~map:(fun l -> l - 1) v;
  Profdata.merge_renumbered ~into:dst ~map:(fun l -> l - 1) v;
  let d = row dst in
  check_float "merged time" 1.5 d.times.(0);
  check_int "merged samples" 6 d.samples.(0);
  check_bool "merged rank 1 unreported" false (Profdata.reported d ~rank:1)

(* --- commrec --- *)

let test_commrec_compression () =
  let t = Commrec.create () in
  let record ~tag ~waited ~wait_seconds =
    Commrec.record_p2p t ~recv_rank:1 ~recv_vertex:10 ~send_rank:0
      ~send_vertex:9 ~tag ~bytes:1024 ~waited ~wait_seconds
  in
  for _ = 1 to 100 do
    record ~tag:3 ~waited:false ~wait_seconds:0.0
  done;
  record ~tag:3 ~waited:true ~wait_seconds:0.5;
  check_int "one edge" 1 (Commrec.n_p2p t);
  (* compression ratio accounting *)
  check_bool "compressed smaller" true
    (Commrec.storage_bytes t < Commrec.uncompressed_bytes t);
  (* distinct keys create distinct edges *)
  record ~tag:4 ~waited:false ~wait_seconds:0.0;
  check_int "two edges" 2 (Commrec.n_p2p t);
  Commrec.freeze t;
  check_int "two edges frozen" 2 (Commrec.n_p2p t);
  let e =
    List.find
      (fun e -> Commrec.tag t e = 3)
      (List.init (Commrec.n_p2p t) Fun.id)
  in
  check_int "hits" 101 (Commrec.hits t e);
  check_bool "wait sticky" true (Commrec.has_wait t e);
  check_float "max wait" 0.5 (Commrec.max_wait t e)

let test_commrec_collectives () =
  let t = Commrec.create () in
  Commrec.record_coll t ~vertex:5 ~last_arrival_rank:2;
  Commrec.record_coll t ~vertex:5 ~last_arrival_rank:2;
  Commrec.record_coll t ~vertex:5 ~last_arrival_rank:7;
  check_int "one record" 1 (Commrec.n_coll t);
  let r = List.hd (Commrec.coll_records t) in
  check_int "instances" 3 r.Commrec.instances;
  check_int "dominant late rank" 2 (Commrec.dominant_late_rank r)

(* The columns against the table they replaced: random instance streams
   (repeated keys, NaN, signed-zero and negative waits, enough edges to
   fill several blocks and double the index and the bucket count) fed to
   [record_p2p] and to a seed-0 [Hashtbl] that folds them as the old
   record did.  The frozen columns, read in index order, must list the
   table's [Hashtbl.fold] order with the same hits, wait flags and
   max-wait bits. *)
let prop_commrec_matches_table =
  let waits = [| 0.0; -0.0; 1e-5; 0.5; 2.0; -1.0; Float.nan; -.Float.nan |] in
  let instances =
    {
      Prop.gen =
        (fun r ->
          Array.init
            (1 + Prop.below r 3000)
            (fun _ ->
              ( Array.init 6 (fun f -> Prop.below r [| 8; 6; 8; 6; 3; 2 |].(f)),
                Prop.below r 2 = 0,
                waits.(Prop.below r (Array.length waits)) )));
      shrink = (fun _ -> []);
      show = (fun a -> Printf.sprintf "<%d instances>" (Array.length a));
    }
  in
  Prop.test ~count:30 "columns = the table they replaced" instances (fun a ->
      let t = Commrec.create () in
      let table = Hashtbl.create ~random:false 256 in
      Array.iter
        (fun (k, waited, wait) ->
          Commrec.record_p2p t ~recv_rank:k.(0) ~recv_vertex:k.(1)
            ~send_rank:k.(2) ~send_vertex:k.(3) ~tag:k.(4) ~bytes:k.(5)
            ~waited ~wait_seconds:wait;
          let key = (k.(0), k.(1), k.(2), k.(3), k.(4), k.(5)) in
          match Hashtbl.find_opt table key with
          | Some (h, w, m) ->
              Hashtbl.replace table key (h + 1, w || waited, Float.max m wait)
          | None -> Hashtbl.add table key (1, waited, wait))
        a;
      Commrec.freeze t;
      let expected =
        List.rev (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])
      in
      List.length expected = Commrec.n_p2p t
      && List.for_all2
           (fun ((rr, rv, sr, sv, tg, by), (h, w, m)) e ->
             (rr, rv, sr, sv, tg, by)
             = ( Commrec.recv_rank t e,
                 Commrec.recv_vertex t e,
                 Commrec.send_rank t e,
                 Commrec.send_vertex t e,
                 Commrec.tag t e,
                 Commrec.bytes t e )
             && h = Commrec.hits t e
             && w = Commrec.has_wait t e
             && Int64.equal (Int64.bits_of_float m)
                  (Int64.bits_of_float (Commrec.max_wait t e)))
           expected
           (List.init (Commrec.n_p2p t) Fun.id))

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
    List.fold_left
      (fun acc vertex ->
        match Profdata.row data ~vertex with
        | Some r -> acc +. r.times.(0)
        | None -> acc)
      0.0
      (Profdata.touched_vertices data)
  in
  match Profdata.row data ~vertex:work_vertex.Vertex.id with
  | Some r when Profdata.reported r ~rank:0 ->
      check_bool "hot vertex dominates" true (r.times.(0) > 0.6 *. total)
  | _ -> Alcotest.fail "work vertex has no data"

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
  match Profdata.row data ~vertex:barrier_vertex.Vertex.id with
  | Some r when Profdata.reported r ~rank:1 ->
      check_bool "rank1 waited" true (r.waits.(1) > 0.001);
      check_int "calls counted" 1 r.calls.(1);
      check_bool "rank0 did not wait" true (r.waits.(0) < 0.001)
  | _ -> Alcotest.fail "barrier vector missing on rank 1"

let test_record_prob_zero () =
  let prog = ring_program ~niter:10 () in
  let config =
    Scalana.Config.profiler_config
      { Scalana.Config.default with record_prob = 0.0 }
  in
  let _, _, data, _ = profiled_run ~config ~nprocs:4 prog in
  check_int "no comm records" 0 (Commrec.n_p2p data.Profdata.comm + Commrec.n_coll data.Profdata.comm)

let test_record_prob_one_dependence () =
  let prog = ring_program ~niter:10 () in
  let config =
    Scalana.Config.profiler_config
      { Scalana.Config.default with record_prob = 1.0 }
  in
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
  match Profdata.row data ~vertex:work_vertex.Vertex.id with
  | Some r ->
      check_int "one slot per rank" 4 (Array.length r.times);
      for rank = 0 to 3 do
        check_bool "every rank sampled the hot loop" true
          (Profdata.reported r ~rank)
      done
  | None -> Alcotest.fail "work vertex has no row"

(* --- profile digests ---

   Every cell of the 11 registry programs' profiles at np 4, 16 and 64,
   clean and under [Testutil.diff_fault_plan], pinned by digest: each
   reported cell in ascending (vertex, rank) order with its time,
   samples, five PMU counters, wait and calls (floats as [%h]), then the
   touched vertices and the storage estimate.  Nothing else in the suite
   pins samples, calls or PMU values. *)

let reported_cell (data : Profdata.t) ~rank ~vertex =
  match Profdata.row data ~vertex with
  | Some r when Profdata.reported r ~rank ->
      Some (r.times.(rank), r.samples.(rank), r.pmu.(rank), r.waits.(rank),
            r.calls.(rank))
  | _ -> None

let profile_digest (data : Profdata.t) =
  let b = Buffer.create 4096 in
  let touched = Profdata.touched_vertices data in
  List.iter
    (fun vertex ->
      for rank = 0 to data.Profdata.nprocs - 1 do
        match reported_cell data ~rank ~vertex with
        | None -> ()
        | Some (time, samples, (p : Pmu.t), wait, calls) ->
            Printf.bprintf b "%d %d %h %d %h %h %h %h %h %h %d\n" vertex rank
              time samples p.tot_ins p.tot_lst_ins p.tot_cyc p.cache_miss
              p.fp_ins wait calls
      done)
    touched;
  Printf.bprintf b "touched %s\nbytes %d\n"
    (String.concat "," (List.map string_of_int touched))
    (Profdata.storage_bytes data);
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_profile_digests =
  [
    ("bt/4/clean", "fd3b5b5175685f05988dbd74a87c46dd");
    ("bt/4/faulted", "3be850e72ab8648282acd6f8e03dbc44");
    ("bt/16/clean", "c9539347a5fe48433da5583d6931030e");
    ("bt/16/faulted", "894451506a0fc7f9bdf95d331855a2ce");
    ("bt/64/clean", "e4080ee76c2f66c4d6a3b34a38637813");
    ("bt/64/faulted", "49a7d6c8a7a7e521920c7d4ac59dec98");
    ("cg/4/clean", "8d3039f5a25d06b344f8fcf90c3e100a");
    ("cg/4/faulted", "5d8d9158e41d5b9242f71f7ab92aa17e");
    ("cg/16/clean", "400693389d87fbb40c4b2d7c2c9d21b9");
    ("cg/16/faulted", "14c6c962bec5d6c1d3de1725cdbcd032");
    ("cg/64/clean", "9e73cd717dd172dd0275778dab227e65");
    ("cg/64/faulted", "8ce6cf94928173991db2eb39c6911191");
    ("ep/4/clean", "a28185f051caed38f2d8e4b3a7b150cc");
    ("ep/4/faulted", "7291fe42a41827524bb1ad7b0f24912c");
    ("ep/16/clean", "6f8ad4207b72cc44d853c4d240993ebc");
    ("ep/16/faulted", "7291fe42a41827524bb1ad7b0f24912c");
    ("ep/64/clean", "b9d665cce39a2721ac66605ad06d407a");
    ("ep/64/faulted", "7291fe42a41827524bb1ad7b0f24912c");
    ("ft/4/clean", "1d89c0b623fd2434fbe75fdd05a67ea0");
    ("ft/4/faulted", "0a8df452285b2f4f18e643cc79622103");
    ("ft/16/clean", "cd8f57dd1921f6fac4350b0f46cf98c4");
    ("ft/16/faulted", "2c9fd21181395296429ede44d17a0194");
    ("ft/64/clean", "a9453ea644798f6c8de202b0c797e9a9");
    ("ft/64/faulted", "c420ed078e753a4d43f77bd013777568");
    ("mg/4/clean", "ab3efa8f1a410efda9805a6d14ab33cb");
    ("mg/4/faulted", "5603d2ce17b26e0d9de4185c6daad754");
    ("mg/16/clean", "f6421fcf62b98aa438ab16396cc96b0a");
    ("mg/16/faulted", "a42e22941525b081a786622e7c8eaffb");
    ("mg/64/clean", "5971b4b08f2415f7b319754dd6e1bdc2");
    ("mg/64/faulted", "ef3ce59105378d34e2b698dc1e957fa0");
    ("sp/4/clean", "1bc2452a3bd293aa95514ec6a30bf7e2");
    ("sp/4/faulted", "3be850e72ab8648282acd6f8e03dbc44");
    ("sp/16/clean", "fe6d92b3a14e6f520edbdaf7a7d8aa4c");
    ("sp/16/faulted", "894451506a0fc7f9bdf95d331855a2ce");
    ("sp/64/clean", "30c6ab7f54c85ad9864cb6e5d9608c24");
    ("sp/64/faulted", "49a7d6c8a7a7e521920c7d4ac59dec98");
    ("lu/4/clean", "4d8c2cd469c5c8d1c8c36517571d3f0b");
    ("lu/4/faulted", "e0a1dd5996838ff640ea96de9a903886");
    ("lu/16/clean", "072251b6d4e4027d4d02700533ee4002");
    ("lu/16/faulted", "8fd6c47461a87da235d217a68c7aefff");
    ("lu/64/clean", "5cc687d5c312537a735f930c723ad80b");
    ("lu/64/faulted", "5bfae624083d23cee1a14c617e7dd684");
    ("is/4/clean", "998fa764bab19595c0dbf88795b015bf");
    ("is/4/faulted", "584b9137ae139009c9348366fd3279d6");
    ("is/16/clean", "e462fe9b441a1a2dd3f27d483b0e81cd");
    ("is/16/faulted", "14285f83587a727c7bd7d03f7b233b9f");
    ("is/64/clean", "5fcb8eadff0df9367815f5c076a26e98");
    ("is/64/faulted", "c880c45771ce11ff3f395a8cb9ba6339");
    ("sst/4/clean", "40f6bb80ef364efcbe7e5c9154c868fd");
    ("sst/4/faulted", "4af28945179bf1feb3ed100018392868");
    ("sst/16/clean", "708e17c8839a81fdca96469a630e0bb3");
    ("sst/16/faulted", "7291fe42a41827524bb1ad7b0f24912c");
    ("sst/64/clean", "27850632ed008935634c751045279ba1");
    ("sst/64/faulted", "7291fe42a41827524bb1ad7b0f24912c");
    ("nekbone/4/clean", "d273587495089e5eed2b2acd2341c967");
    ("nekbone/4/faulted", "b2b778d4feabb5e6c0c2ff62cfbe8132");
    ("nekbone/16/clean", "aa4d3cb4468844667459994818f7ea2a");
    ("nekbone/16/faulted", "bb401d963e6b7e867114171874754ead");
    ("nekbone/64/clean", "0ce763e7abd01d48104fcfb052b5c278");
    ("nekbone/64/faulted", "eaab96260d7c710a2d91c4085a1212cf");
    ("zeusmp/4/clean", "2cfcdd9e7e5a13ca0bece78c0194c488");
    ("zeusmp/4/faulted", "cdec670dd9b5f898e91bb6029db82b66");
    ("zeusmp/16/clean", "790edb73e477783262f2f00d3ebe149b");
    ("zeusmp/16/faulted", "ac829da2c63699a442325ce4d8e440a8");
    ("zeusmp/64/clean", "e5b623f7f87be8dfaf1ffd7ca24d224c");
    ("zeusmp/64/faulted", "7291fe42a41827524bb1ad7b0f24912c");
  ]

let test_profile_digests () =
  let checked = ref 0 in
  List.iter
    (fun (entry : Scalana_apps.Registry.entry) ->
      List.iter
        (fun nprocs ->
          List.iter
            (fun (mode, faults) ->
              let _, data = profile_entry ?faults entry ~nprocs in
              let key = Printf.sprintf "%s/%d/%s" entry.name nprocs mode in
              check_string key
                (List.assoc key expected_profile_digests)
                (profile_digest data);
              incr checked)
            [ ("clean", None); ("faulted", Some diff_fault_plan) ])
        [ 4; 16; 64 ])
    Scalana_apps.Registry.all;
  check_int "66 profiles digested" 66 !checked

(* --- communication-record order ---

   The order the PPG reads a profile's p2p edges in decides every
   [Ppg.critical_edge] tie and so every backtracking path.  Pinned per
   profile: each edge in reading order with its six key fields,
   [has_wait], [hits] and the bits of [max_wait]; then the collective
   records by vertex (instances, dominant late rank) and the storage
   estimate.  The registry profiles as above, plus the elastic programs
   at np 4, 8 and 16 as scalana-prof builds them. *)

let comm_digest (comm : Commrec.t) =
  let b = Buffer.create 4096 in
  for e = 0 to Commrec.n_p2p comm - 1 do
    Printf.bprintf b "%d %d %d %d %d %d %b %d %Ld\n"
      (Commrec.recv_rank comm e) (Commrec.recv_vertex comm e)
      (Commrec.send_rank comm e) (Commrec.send_vertex comm e)
      (Commrec.tag comm e) (Commrec.bytes comm e) (Commrec.has_wait comm e)
      (Commrec.hits comm e)
      (Int64.bits_of_float (Commrec.max_wait comm e))
  done;
  Commrec.coll_records comm
  |> List.sort (fun (a : Commrec.coll_rec) b ->
         compare a.coll_vertex b.coll_vertex)
  |> List.iter (fun (r : Commrec.coll_rec) ->
         Printf.bprintf b "coll %d %d %d\n" r.coll_vertex r.instances
           (Commrec.dominant_late_rank r));
  Printf.bprintf b "bytes %d\n" (Commrec.storage_bytes comm);
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_comm_digests =
  [
    ("bt/4/clean", "03d95f2c91bbdaf3bc49d05389288255");
    ("bt/4/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("bt/16/clean", "815687779624ba308c3d6de850b12128");
    ("bt/16/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("bt/64/clean", "5fa98b09f2a9a4f5d051bd465a9f2e0e");
    ("bt/64/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("cg/4/clean", "4391f43bff24cf433615323b872a4019");
    ("cg/4/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("cg/16/clean", "97d50d88a65cca5b6ac2bfdb281fc10e");
    ("cg/16/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("cg/64/clean", "fdfc2b86c46a3b0cd2aa20c91be09d85");
    ("cg/64/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("ep/4/clean", "b86518ac24d79cf1e760c6f6a106c8d2");
    ("ep/4/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("ep/16/clean", "9b354f8c147d842f8d953e75be175256");
    ("ep/16/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("ep/64/clean", "c2fceb38c09b740aa347daf50db29957");
    ("ep/64/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("ft/4/clean", "6a56459bf7e6f63f697956f1b9fe6adb");
    ("ft/4/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("ft/16/clean", "fc7feb03daf7a89d60cba9821307144d");
    ("ft/16/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("ft/64/clean", "12c821bff78210867ae4fd2e741d8270");
    ("ft/64/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("mg/4/clean", "a656a5f8ce8c56acd4243681714fcb9e");
    ("mg/4/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("mg/16/clean", "82a6af82e26e568ad249f0ecc26b890a");
    ("mg/16/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("mg/64/clean", "4c801034db0f8ba06e6c50180dd44bdd");
    ("mg/64/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("sp/4/clean", "4540c09dc419c93aa54c58c32c61b2cf");
    ("sp/4/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("sp/16/clean", "a17296ea3bb43839511a9192284cf256");
    ("sp/16/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("sp/64/clean", "4f09e688bccacdd1de375eebaf91cbe2");
    ("sp/64/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("lu/4/clean", "cefa8d3ed407acc789b6f1cdda549dff");
    ("lu/4/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("lu/16/clean", "6688514c2cb66c153924354ec2b61829");
    ("lu/16/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("lu/64/clean", "a98e7afb368320a6fc93b43ab5ab6f89");
    ("lu/64/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("is/4/clean", "076abe5974f8152489673e42c19c4333");
    ("is/4/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("is/16/clean", "05d8a9aa75ed00152db9ebd759d7dbfe");
    ("is/16/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("is/64/clean", "40ce58745acd92d841a8a5ffb3385c25");
    ("is/64/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("sst/4/clean", "8115a2dd9e664067ce7fc27a093e5802");
    ("sst/4/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("sst/16/clean", "b65a4274f9f8efb612ad3b732773da41");
    ("sst/16/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("sst/64/clean", "9a12d6fcb930c97695bb88cb25e16ccb");
    ("sst/64/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("nekbone/4/clean", "a5bafdbba9e9a4446b35f444829549b9");
    ("nekbone/4/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("nekbone/16/clean", "ded9957562e7794f6c37ab9c9a6cf316");
    ("nekbone/16/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("nekbone/64/clean", "480be458765c35ae834ed7bfacc1e4c4");
    ("nekbone/64/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("zeusmp/4/clean", "21d238f552fb42fdd7f02ee437cffc5c");
    ("zeusmp/4/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("zeusmp/16/clean", "7bfac6c1114e7079a35d506d337e1dd9");
    ("zeusmp/16/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("zeusmp/64/clean", "b6a68e119e1ed464bf11e99581c3721e");
    ("zeusmp/64/faulted", "b24585271c696ceb45c64e1f2c342229");
    ("cg-shrink/4", "6d818781a2b2dcc4abf2780968b898c2");
    ("cg-shrink/8", "46191177b7632c7ce4da2f32cb5f21ca");
    ("cg-shrink/16", "cef7a0e8cf9521a743326156f5abd649");
    ("halo-grow/4", "147ae4fd55ef00561d2d48cffd673c39");
    ("halo-grow/8", "c9d883ccca7690a3b31509aff9ff347d");
    ("halo-grow/16", "478e5bcef25a721d0286f7f9ca5d628d");
  ]

let test_comm_order_pinned () =
  let got = ref [] in
  List.iter
    (fun (entry : Scalana_apps.Registry.entry) ->
      List.iter
        (fun nprocs ->
          List.iter
            (fun (mode, faults) ->
              let _, data = profile_entry ?faults entry ~nprocs in
              got :=
                ( Printf.sprintf "%s/%d/%s" entry.name nprocs mode,
                  comm_digest data.Profdata.comm )
                :: !got)
            [ ("clean", None); ("faulted", Some diff_fault_plan) ])
        [ 4; 16; 64 ])
    Scalana_apps.Registry.all;
  List.iter
    (fun name ->
      let entry = Scalana_apps.Registry.find name in
      let session =
        cli_session ~cost:entry.cost ?plan:entry.elastic_plan
          ~scales:[ 4; 8; 16 ] (entry.make ())
      in
      List.iter
        (fun (nprocs, (r : Scalana.Prof.run)) ->
          got :=
            ( Printf.sprintf "%s/%d" name nprocs,
              comm_digest r.data.Profdata.comm )
            :: !got)
        session.Scalana.Artifact.runs)
    [ "cg-shrink"; "halo-grow" ];
  let got = List.rev !got in
  check_int "72 profiles digested" 72 (List.length got);
  List.iter
    (fun (key, digest) ->
      check_string key (List.assoc key expected_comm_digests) digest)
    got

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
  check_int "nprocs" 4 (Timeline.nprocs tl);
  check_float "elapsed" result.Exec.elapsed (Timeline.elapsed tl);
  let positions = List.init (Timeline.n_intervals tl) Fun.id in
  let has_kind p = List.exists (fun i -> p (Timeline.is_mpi tl i)) positions in
  check_bool "compute intervals" true (has_kind not);
  check_bool "mpi intervals" true (has_kind Fun.id);
  (* every rank contributed, and each per-rank stream is time-ordered *)
  for rank = 0 to 3 do
    let ivs = List.filter (fun i -> Timeline.rank tl i = rank) positions in
    check_bool "rank has intervals" true (ivs <> []);
    let rec ordered = function
      | a :: (b :: _ as rest) ->
          Timeline.start tl a <= Timeline.start tl b && ordered rest
      | _ -> true
    in
    check_bool "rank stream ordered" true (ordered ivs)
  done;
  (* the ring sendrecv produced matched messages with sane timestamps *)
  check_bool "messages recorded" true (Timeline.n_messages tl > 0);
  for m = 0 to Timeline.n_messages tl - 1 do
    check_bool "send precedes arrival" true
      (Timeline.msg_send_time tl m <= Timeline.msg_arrival tl m)
  done;
  check_int "nothing dropped" 0 (Timeline.total_dropped tl)

let test_timeline_compression () =
  (* fig3's inner loops run the same comp vertex back to back, so the
     vertex-keyed merge must collapse those streaks *)
  let prog = fig3_program () in
  let tl, _ = timeline_run ~nprocs:4 prog in
  check_bool "merged some intervals" true (Timeline.merged tl > 0);
  check_bool "a multi-iteration slice" true
    (List.exists
       (fun i -> Timeline.merges tl i > 1)
       (List.init (Timeline.n_intervals tl) Fun.id))

let test_timeline_truncation () =
  let prog = ring_program ~niter:20 ~work:500_000 () in
  let full, _ = timeline_run ~nprocs:4 prog in
  let capped, _ =
    timeline_run ~tconfig:{ Timeline.max_events = 8 } ~nprocs:4 prog
  in
  check_bool "events dropped" true (Timeline.total_dropped capped > 0);
  check_bool "cap respected" true
    (Timeline.n_intervals capped + Timeline.n_messages capped <= 8);
  (* blocked-time accounting survives truncation untouched *)
  let total_blocked tl =
    List.fold_left ( +. ) 0.0
      (List.init (Timeline.nprocs tl) (Timeline.blocked tl))
  in
  check_bool "some blocked time" true (total_blocked full > 0.0);
  check_float "blocked preserved" (total_blocked full) (total_blocked capped)

let test_timeline_zero_overhead () =
  (* the recorder is an idealized observer: identical clocks either way *)
  let prog = ring_program ~niter:20 ~work:1_000_000 () in
  let bare = run ~nprocs:4 prog in
  let _, instrumented = timeline_run ~nprocs:4 prog in
  check_float "idealized observer" bare.Exec.elapsed instrumented.Exec.elapsed

(* --- resolver --- *)

(* A zero-overhead, ungated tool handing every hook context to [on_ctx]
   (with the label of a compute span) and every matched send's context
   to [on_peer]. *)
let context_tool ?(on_peer = fun ~cctx:_ ~callpath:_ ~loc:_ -> ()) on_ctx =
  {
    (Instrument.nil "contexts") with
    Instrument.on_interval =
      (fun c ~stop:_ act ->
        (match act with
        | Instrument.Compute { label; _ } -> on_ctx c ~label
        | Instrument.Mpi_span _ -> on_ctx c ~label:None);
        0.0);
    on_mpi_exit =
      (fun c info ->
        on_ctx c ~label:None;
        List.iter
          (fun (d : Instrument.peer_dep) ->
            on_peer ~cctx:d.peer_cctx ~callpath:d.peer_callpath
              ~loc:d.peer_loc)
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
   context a run presents: each hook's (context id, call path, loc) and
   each matched send's, over the whole registry plus
   [two_callers_program].  Within a run, equal ids carry one shared call
   path and distinct ids distinct call paths. *)
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
          let path_of_id = Hashtbl.create 64 in
          let id_of_path = Hashtbl.create 64 in
          let id_clashes = ref 0 in
          let agree ~cctx ~callpath ~loc =
            incr lookups;
            if
              Index.Resolver.find resolver ~cctx ~callpath ~loc
              <> Index.find index ~callpath ~loc
            then incr mismatches;
            (match Hashtbl.find_opt path_of_id cctx with
            | Some p -> if p != callpath then incr id_clashes
            | None -> Hashtbl.add path_of_id cctx callpath);
            match Hashtbl.find_opt id_of_path callpath with
            | Some id -> if id <> cctx then incr id_clashes
            | None -> Hashtbl.add id_of_path callpath cctx
          in
          let tool =
            context_tool ~on_peer:agree (fun (c : Instrument.ctx) ~label:_ ->
                agree ~cctx:c.cctx ~callpath:c.callpath ~loc:c.loc)
          in
          let cfg = Exec.config ~nprocs ~cost ~tools:[ tool ] () in
          ignore (Exec.run ~cfg prog : Exec.result);
          let what = Printf.sprintf "%s np=%d" name nprocs in
          check_bool (what ^ " contexts seen") true (!lookups > 0);
          check_int (what ^ " resolver = find") 0 !mismatches;
          check_int (what ^ " ids <=> call paths") 0 !id_clashes)
        [ 4; 16 ])
    programs

(* The fixture above really has one statement under two vertices. *)
let test_resolver_call_path_matters () =
  let _, _, _, index = static_of (two_callers_program ()) in
  let resolver = Index.Resolver.create index in
  let pack = ref [] in
  let tool =
    context_tool (fun (c : Instrument.ctx) ~label ->
        if label = Some "pack" then pack := c :: !pack)
  in
  ignore (run ~nprocs:2 ~tools:[ tool ] (two_callers_program ()) : Exec.result);
  let vertices =
    List.sort_uniq compare
      (List.map
         (fun (c : Instrument.ctx) ->
           Index.Resolver.find resolver ~cctx:c.cctx ~callpath:c.callpath
             ~loc:c.loc)
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
  let cctx = 1 in
  let stale = Index.Resolver.create index in
  let before = Index.Resolver.find stale ~cctx ~callpath ~loc:comp_loc in
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
      let after = Index.Resolver.find fresh ~cctx ~callpath ~loc:comp_loc in
      check_bool "fresh resolver = find" true
        (after = Index.find index ~callpath ~loc:comp_loc);
      check_bool "spliced vertex" true
        (match after with
        | Some vid ->
            List.mem vid
              (Psg.subtree_vertices contraction.Contract.psg sub_root)
        | None -> false);
      check_bool "stale resolver keeps its run's answer" true
        (Index.Resolver.find stale ~cctx ~callpath ~loc:comp_loc = before)

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
    Index.Resolver.find resolver ~cctx:deepest.cctx ~callpath:deepest.callpath
      ~loc:deepest.loc
  in
  let expected =
    Index.find index ~callpath:deepest.callpath ~loc:deepest.loc
  in
  check_bool "re-entry attributed" true (expected <> None);
  check_bool "miss = find" true (find () = expected);
  check_bool "hit = find" true (find () = expected)

(* Unknown contexts stay [None] on every lookup, and enough of them to
   grow the memo several times leave every answer, known ones included,
   where [find] puts it.  Ids are interned here the way a run interns
   them: one per distinct call path. *)
let test_resolver_unknown_loc () =
  let prog = ring_program () in
  let _, full, _, index = static_of prog in
  let ids = Hashtbl.create 64 in
  let with_id (callpath, loc) =
    let cctx =
      match Hashtbl.find_opt ids callpath with
      | Some id -> id
      | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids callpath id;
          id
    in
    (cctx, callpath, loc)
  in
  let known =
    List.map
      (fun v -> with_id (v.Vertex.callpath, v.Vertex.loc))
      (Psg.find_all (fun _ -> true) full)
  in
  let unknown =
    List.init 1000 (fun n ->
        with_id
          ( [ Loc.v ~file:"nope.mmp" ~line:n ],
            Loc.v ~file:"nope.mmp" ~line:(n + 1) ))
  in
  let resolver = Index.Resolver.create index in
  let all_agree () =
    List.for_all
      (fun (cctx, callpath, loc) ->
        Index.Resolver.find resolver ~cctx ~callpath ~loc
        = Index.find index ~callpath ~loc)
      (known @ unknown)
  in
  check_bool "first lookups = find" true (all_agree ());
  check_bool "repeated lookups = find" true (all_agree ());
  check_bool "unknown stays None" true
    (List.for_all
       (fun (cctx, callpath, loc) ->
         Index.Resolver.find resolver ~cctx ~callpath ~loc = None)
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

(* A frequency whose period never reaches an interval's end is refused
   before any run: negative, zero, infinite or NaN; so is one whose
   period one sample's modelled 150 µs cost fills, where the tick loop
   would run for ever once the period drops below half an ulp. *)
let test_profiler_rejects_bad_freq () =
  let _, _, _, index = static_of (ring_program ()) in
  List.iter
    (fun freq ->
      match
        Profiler.create
          ~config:
            (Scalana.Config.profiler_config
               { Scalana.Config.default with sampling_freq = freq })
          ~index ~nprocs:2 ()
      with
      | _ -> Alcotest.failf "freq %g accepted" freq
      | exception Invalid_argument _ -> ())
    [
      -5.0;
      0.0;
      Float.nan;
      Float.infinity;
      Float.neg_infinity;
      1e15;
      1.0 /. 150e-6;
    ]

(* --- sample gate --- *)

(* The gate only withholds calls that would be no-ops: a profiler run
   with its gate and a copy run with [sample_gate = [||]] (every
   interval delivered) end with the same clocks and the same profile —
   vectors, comm records and counters — bit for bit, while the gated
   one sees fewer [on_interval] calls. *)
let test_gate_differential () =
  let module R = Scalana_apps.Registry in
  let cases =
    List.concat_map
      (fun (e : R.entry) -> List.map (fun np -> (e, np)) [ 4; 16; 64 ])
      R.all
    @ [ (R.find "cg-weak", 512) ]
  in
  List.iter
    (fun ((e : R.entry), nprocs) ->
      let prog = e.make () in
      let _, _, _, index = static_of prog in
      let profile ~gated =
        let profiler = Profiler.create ~index ~nprocs () in
        let tool = Profiler.tool profiler in
        let calls = ref 0 in
        let tool =
          {
            tool with
            Instrument.sample_gate =
              (if gated then tool.Instrument.sample_gate else [||]);
            on_interval =
              (fun ctx ~stop act ->
                incr calls;
                tool.Instrument.on_interval ctx ~stop act);
          }
        in
        let cfg = Exec.config ~nprocs ~cost:e.cost ~tools:[ tool ] () in
        let result = Exec.run ~cfg prog in
        ( Marshal.to_string result [],
          Marshal.to_string (Profiler.data profiler) [],
          !calls )
      in
      let r_gated, d_gated, n_gated = profile ~gated:true in
      let r_all, d_all, n_all = profile ~gated:false in
      let what = Printf.sprintf "%s np=%d" e.name nprocs in
      check_bool (what ^ ": same clocks") true (String.equal r_gated r_all);
      check_bool (what ^ ": same profile") true (String.equal d_gated d_all);
      check_bool (what ^ ": gate skips intervals") true (n_gated < n_all))
    cases

(* --- timeline capture --- *)

(* [capture] lays each rank's intervals out in recording order instead
   of sorting them.  Per rank they are non-decreasing in (start, stop),
   each position holds, field by field, what the polymorphic-compare
   sorts [capture] replaced put there (sorting a reversed copy, so the
   sorts really work), and capture allocates little beyond its output
   arrays. *)
let test_capture_order () =
  let module R = Scalana_apps.Registry in
  let module T = Timeline in
  let interval_key tl i = (T.rank tl i, T.start tl i, T.stop tl i) in
  let message_key tl m =
    (T.msg_send_time tl m, T.msg_src tl m, T.msg_dst tl m, T.msg_tag tl m)
  in
  let interval_fields tl i =
    ( interval_key tl i,
      (T.vertex tl i, T.merges tl i, T.name tl i, T.wait tl i),
      ( List.init (T.n_deps tl i) (T.dep tl i),
        T.send_dests tl i,
        T.coll tl i ) )
  in
  let message_fields tl m =
    ( message_key tl m,
      ( T.msg_recv_enter tl m,
        T.msg_arrival tl m,
        T.msg_bytes tl m,
        T.msg_vertex tl m ) )
  in
  (* positions in the old sort's order *)
  let old_sort n key =
    let copy = Array.init n (fun i -> n - 1 - i) in
    Array.sort (fun a b -> compare (key a) (key b)) copy;
    copy
  in
  List.iter
    (fun name ->
      let e = R.find name in
      let prog = e.make () in
      let _, _, _, index = static_of prog in
      List.iter
        (fun nprocs ->
          let what = Printf.sprintf "%s np=%d" name nprocs in
          let profiler = Profiler.create ~index ~nprocs () in
          let recorder = T.create ~index ~nprocs () in
          let tools = [ Profiler.tool profiler; T.tool recorder ] in
          ignore
            (Exec.run ~cfg:(Exec.config ~nprocs ~cost:e.cost ~tools ()) prog
              : Exec.result);
          (* measured from an empty minor heap: a minor collection
             inside the region otherwise reported words the run left
             behind (~160K at cg np=4, where capture itself allocates
             ~1K) *)
          Gc.minor ();
          let before = Gc.allocated_bytes () in
          let tl = T.capture recorder in
          let allocated = Gc.allocated_bytes () -. before in
          let n = T.n_intervals tl and n_msgs = T.n_messages tl in
          check_bool (what ^ ": intervals") true (n > 0);
          let ordered = ref true in
          for i = 1 to n - 1 do
            if interval_key tl (i - 1) > interval_key tl i then
              ordered := false
          done;
          check_bool (what ^ ": per-rank (start, stop) order") true !ordered;
          let same fields sorted =
            Array.for_all Fun.id
              (Array.mapi (fun i j -> fields tl i = fields tl j) sorted)
          in
          check_bool (what ^ ": intervals = old sort") true
            (same interval_fields (old_sort n (interval_key tl)));
          check_bool (what ^ ": messages = old sort") true
            (same message_fields (old_sort n_msgs (message_key tl)));
          let output_bytes = 8 * (n + n_msgs + (2 * nprocs) + 4) in
          check_bool
            (Printf.sprintf "%s: capture allocated %.0f B, output %d B" what
               allocated output_bytes)
            true
            (allocated <= 4.0 *. float_of_int output_bytes))
        (R.scales e ~min_np:4 ~max_np:128))
    [ "cg"; "bt"; "zeusmp"; "mg" ]

let () =
  Alcotest.run "profile"
    [
      ("perfvec", [ Alcotest.test_case "accumulate/merge" `Quick test_perfvec ]);
      ( "commrec",
        [
          Alcotest.test_case "p2p compression" `Quick test_commrec_compression;
          Alcotest.test_case "collective histogram" `Quick
            test_commrec_collectives;
          prop_commrec_matches_table;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "density" `Quick test_sampling_density;
          Alcotest.test_case "hot-vertex attribution" `Quick
            test_attribution_targets_hot_vertex;
          Alcotest.test_case "wait on MPI vertex" `Quick
            test_wait_recorded_on_mpi_vertex;
          Alcotest.test_case "rejects bad frequencies" `Quick
            test_profiler_rejects_bad_freq;
          Alcotest.test_case "gated = ungated (registry, cg-weak 512)" `Quick
            test_gate_differential;
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
          Alcotest.test_case "registry profiles pinned by digest" `Quick
            test_profile_digests;
          Alcotest.test_case "comm-record order pinned by digest" `Quick
            test_comm_order_pinned;
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
          Alcotest.test_case "capture order without sorting" `Quick
            test_capture_order;
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
