(* Tests for the static scaling-loss linter: one synthetic program per
   rule, plus the acceptance pins on the bundled apps — the NPB-CG
   transpose exchange is flagged, NPB-EP (and every other shipped app)
   is clean. *)

open Scalana_mlang
open Testutil

let build f =
  let b = Builder.create ~file:"t.mmp" ~name:"t" () in
  f b;
  Builder.program b

let rules fs = List.map (fun (f : Lint.finding) -> f.Lint.rule) fs

let check_rules msg expected prog =
  let fs = Lint.run prog in
  Alcotest.(check (list string))
    msg
    (List.map Lint.rule_name expected)
    (List.map Lint.rule_name (rules fs))

(* --- one program per rule --- *)

let test_nprocs_volume () =
  let open Expr.Infix in
  check_rules "allreduce of 8*np bytes" [ Lint.Nprocs_volume ]
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [ Builder.allreduce b ~bytes:(i 8 * np) ])));
  (* shrinking partitions are the scalable idiom — not flagged *)
  check_rules "n/np partition is clean" []
    (build (fun b ->
         Builder.param b "n" 65536;
         Builder.func b "main" (fun () ->
             [ Builder.allreduce b ~bytes:(p "n" / np) ])));
  (* a size the probe cannot evaluate at every scale (division by zero
     at np=4) is not a finding *)
  check_rules "64/(np-4) fails the probe" []
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [ Builder.allreduce b ~bytes:(i 64 / (np - i 4)) ])));
  (* free variables are probed at 1 *)
  let fs =
    Lint.run
      (build (fun b ->
           Builder.func b "main" (fun () ->
               [
                 Builder.loop b ~var:"k" ~count:(i 4) (fun () ->
                     [ Builder.allreduce b ~bytes:(v "k" * np) ]);
               ])))
  in
  Alcotest.(check (list string))
    "k*np in a loop over k" [ "nprocs-volume" ]
    (List.map Lint.rule_name (rules fs));
  check_string "probed sizes in the message"
    "MPI_Allreduce message size k * np grows with the process count (4 B \
     at 4 ranks, 64 B at 64)"
    (String.concat "; " (List.map (fun (f : Lint.finding) -> f.msg) fs))

let test_root_centralized_reduce_bcast () =
  let open Expr.Infix in
  check_rules "reduce then bcast from the same root"
    [ Lint.Root_centralized ]
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [
               Builder.reduce b ~root:(i 0) ~bytes:(i 8) ();
               Builder.bcast b ~root:(i 0) ~bytes:(i 8) ();
             ])))

let test_root_centralized_fan_loop () =
  let open Expr.Infix in
  let prog =
    build (fun b ->
        Builder.func b "main" (fun () ->
            [
              Builder.branch b
                ~cond:(rank = i 0)
                ~else_:(fun () ->
                  [ Builder.send b ~dest:(i 0) ~bytes:(i 8) () ])
                (fun () ->
                  [
                    (* np-1 receives, one per non-root sender, so the
                       channel audit sees a balanced matching *)
                    Builder.loop b ~var:"r" ~count:(np - i 1) (fun () ->
                        [ Builder.recv b ~src:(v "r" + i 1) ~bytes:(i 8) () ]);
                  ]);
            ]))
  in
  let fs = Lint.run prog in
  check_rules "rank-0 fan-in flagged once" [ Lint.Root_centralized ] prog;
  (* the O(P) loop inside the root branch must not double-report as a
     p2p-collective *)
  check_int "no p2p-collective duplicate" 0
    (List.length
       (List.filter
          (function
            | { Lint.rule = Lint.P2p_collective; _ } -> true | _ -> false)
          fs))

let test_p2p_collective () =
  let open Expr.Infix in
  check_rules "log2(np)-trip sendrecv loop" [ Lint.P2p_collective ]
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [
               Builder.loop b ~var:"k" ~count:(log2 np) (fun () ->
                   [
                     Builder.sendrecv b
                       ~dest:(rank lxor (i 1 lsl v "k"))
                       ~sbytes:(i 1024) ~rbytes:(i 1024) ();
                   ]);
             ])))

let test_loop_invariant_comm () =
  let open Expr.Infix in
  check_rules "identical send every iteration" [ Lint.Loop_invariant_comm ]
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [
               Builder.loop b ~var:"t" ~count:(i 10) (fun () ->
                   [ Builder.send b ~dest:(i 1) ~bytes:(i 64) () ]);
             ])));
  (* rank-dependent peer varies per process: not invariant *)
  check_rules "rank-dependent send is clean" []
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [
               Builder.loop b ~var:"t" ~count:(i 10) (fun () ->
                   [ Builder.send b ~dest:(rank + i 1) ~bytes:(i 64) () ]);
             ])))

let test_unwaited_request () =
  let open Expr.Infix in
  check_rules "isend never waited" [ Lint.Unwaited_request ]
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [ Builder.isend b ~dest:(i 0) ~bytes:(i 8) ~req:"r0" () ])));
  check_rules "waited isend is clean" []
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [
               Builder.isend b ~dest:(i 0) ~bytes:(i 8) ~req:"r0" ();
               Builder.wait b ~req:"r0";
             ])))

let test_duplicate_waitall () =
  let open Expr.Infix in
  check_rules "request listed twice" [ Lint.Duplicate_waitall ]
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [
               (* ring neighbour, so every posted receive has a sender
                  and the channel audit stays quiet *)
               Builder.isend b
                 ~dest:((rank + i 1) % np)
                 ~bytes:(i 8) ~req:"r0" ();
               Builder.irecv b ~bytes:(i 8) ~req:"r1" ();
               Builder.waitall b ~reqs:[ "r0"; "r1"; "r0" ];
             ])))

(* --- the interprocedural channel-audit rules --- *)

let test_send_recv_mismatch () =
  let open Expr.Infix in
  (* rank 1 posts two receives for rank 0's single send: the per-rank
     concrete walk sees 1 message in, 2 receives posted *)
  check_rules "double receive for a single send" [ Lint.Send_recv_mismatch ]
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [
               Builder.branch b
                 ~cond:(rank = i 0)
                 ~else_:(fun () ->
                   [
                     Builder.branch b
                       ~cond:(rank = i 1)
                       (fun () ->
                         [
                           Builder.recv b ~src:(i 0) ~bytes:(i 8) ();
                           Builder.recv b ~src:(i 0) ~bytes:(i 8) ();
                         ]);
                   ])
                 (fun () -> [ Builder.send b ~dest:(i 1) ~bytes:(i 8) () ]);
             ])));
  (* a balanced ring is clean *)
  check_rules "balanced ring is clean" []
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [
               Builder.sendrecv b
                 ~dest:((rank + i 1) % np)
                 ~src:((rank + np - i 1) % np)
                 ~sbytes:(i 8) ~rbytes:(i 8) ();
             ])))

let test_rank_tag_mismatch () =
  let open Expr.Infix in
  (* the totals balance (one send, one receive) but the receiver's tag
     never matches the sender's: the exchange hangs on tag routing *)
  check_rules "diverging tag expressions" [ Lint.Rank_tag_mismatch ]
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [
               Builder.branch b
                 ~cond:(rank = i 0)
                 ~else_:(fun () ->
                   [
                     Builder.branch b
                       ~cond:(rank = i 1)
                       (fun () ->
                         [
                           Builder.recv b ~src:(i 0) ~tag:(i 2) ~bytes:(i 8) ();
                         ]);
                   ])
                 (fun () ->
                   [ Builder.send b ~dest:(i 1) ~tag:(i 1) ~bytes:(i 8) () ]);
             ])));
  (* a wildcard-tag receive accepts any tag: clean *)
  check_rules "wildcard receive matches" []
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [
               Builder.branch b
                 ~cond:(rank = i 0)
                 ~else_:(fun () ->
                   [
                     Builder.branch b
                       ~cond:(rank = i 1)
                       (fun () -> [ Builder.recv b ~bytes:(i 8) () ]);
                   ])
                 (fun () ->
                   [ Builder.send b ~dest:(i 1) ~tag:(i 1) ~bytes:(i 8) () ]);
             ])))

let test_collective_divergence () =
  let open Expr.Infix in
  (* only rank 0 enters the allreduce: the other ranks never arrive *)
  check_rules "collective under a rank branch" [ Lint.Collective_divergence ]
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [
               Builder.branch b
                 ~cond:(rank = i 0)
                 (fun () -> [ Builder.allreduce b ~bytes:(i 8) ]);
             ])));
  (* every rank executes it: lockstep, clean *)
  check_rules "lockstep collective is clean" []
    (build (fun b ->
         Builder.func b "main" (fun () ->
             [ Builder.allreduce b ~bytes:(i 8) ])))

(* --- report plumbing --- *)

let test_rule_names_distinct () =
  let names = List.map Lint.rule_name Lint.all_rules in
  check_int "nine rules" 9 (List.length names);
  check_int "names distinct" 9
    (List.length (List.sort_uniq compare names))

let test_report_renders () =
  let open Expr.Infix in
  let fs =
    Lint.run
      (build (fun b ->
           Builder.func b "main" (fun () ->
               [ Builder.allreduce b ~bytes:(i 8 * np) ])))
  in
  let s = Fmt.str "%a" Lint.pp_report fs in
  check_bool "mentions rule" true
    (try
       ignore (Str.search_forward (Str.regexp_string "nprocs-volume") s 0);
       true
     with Not_found -> false);
  check_bool "empty report says so" true
    (let s = Fmt.str "%a" Lint.pp_report [] in
     try
       ignore (Str.search_forward (Str.regexp_string "no findings") s 0);
       true
     with Not_found -> false)

(* --- acceptance pins on the bundled apps --- *)

let test_cg_flagged_ep_clean () =
  let cg = (Scalana_apps.Registry.find "cg").make () in
  let fs = Lint.run cg in
  check_bool "cg transpose exchange flagged" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.rule = Lint.P2p_collective && f.Lint.func = "conj_grad")
       fs);
  let ep = (Scalana_apps.Registry.find "ep").make () in
  check_int "ep has no findings" 0 (List.length (Lint.run ep))

let test_no_false_positives_across_registry () =
  (* every shipped app except cg models scalable communication; the
     linter must stay quiet on all of them *)
  List.iter
    (fun name ->
      if name <> "cg" then
        check_int (name ^ " clean") 0
          (List.length (Lint.run ((Scalana_apps.Registry.find name).make ()))))
    Scalana_apps.Registry.names

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "nprocs volume" `Quick test_nprocs_volume;
          Alcotest.test_case "reduce+bcast" `Quick
            test_root_centralized_reduce_bcast;
          Alcotest.test_case "rank-0 fan loop" `Quick
            test_root_centralized_fan_loop;
          Alcotest.test_case "p2p collective" `Quick test_p2p_collective;
          Alcotest.test_case "loop-invariant comm" `Quick
            test_loop_invariant_comm;
          Alcotest.test_case "unwaited request" `Quick test_unwaited_request;
          Alcotest.test_case "duplicate waitall" `Quick test_duplicate_waitall;
        ] );
      ( "channel audit",
        [
          Alcotest.test_case "send/recv mismatch" `Quick
            test_send_recv_mismatch;
          Alcotest.test_case "rank-tag mismatch" `Quick test_rank_tag_mismatch;
          Alcotest.test_case "collective divergence" `Quick
            test_collective_divergence;
        ] );
      ( "report",
        [
          Alcotest.test_case "rule names" `Quick test_rule_names_distinct;
          Alcotest.test_case "renders" `Quick test_report_renders;
        ] );
      ( "apps",
        [
          Alcotest.test_case "cg flagged, ep clean" `Quick
            test_cg_flagged_ep_clean;
          Alcotest.test_case "registry stays quiet" `Quick
            test_no_false_positives_across_registry;
        ] );
    ]
