(* Tests for the symbolic communication-complexity analysis: the
   polynomial domain, abstract expression evaluation, CFG block counts,
   exponent recovery from probes, the pattern classifier, and the
   acceptance pins on the registry — every app's known hotspot gets the
   expected scaling class (the NPB-CG transpose exchange is O(p)). *)

open Scalana_mlang
open Scalana_cfg
open Testutil

let sym = Alcotest.testable Symbolic.pp Symbolic.equal

let check_sym msg expected actual = Alcotest.check sym msg expected actual

(* --- domain operations --- *)

let test_domain_ops () =
  let open Symbolic in
  check_sym "1 + 1 = 2" (const 2.0) (add one one);
  check_sym "p * p" (mono ~coeff:1.0 ~p_exp:2.0 ~log_exp:0.0) (mul p p);
  check_sym "p * log p"
    (mono ~coeff:1.0 ~p_exp:1.0 ~log_exp:1.0)
    (mul p log_p);
  check_sym "p / p = 1" one (div p p);
  check_bool "top absorbs add" true (is_top (add top one));
  check_bool "top absorbs mul" true (is_top (mul top p));
  check_sym "join takes the larger coeff" (const 3.0)
    (join (const 2.0) (const 3.0));
  (* join is an upper bound across distinct monomials *)
  let j = join p log_p in
  check_bool "join keeps p" true (cls_equal (cls_of j) (cls_of p));
  check_sym "zero is the add identity" p (add zero p)

let test_classes () =
  let open Symbolic in
  check_bool "p is O(p)" true (String.equal (cls_label (cls_of p)) "O(p)");
  check_bool "log p" true
    (String.equal (cls_label (cls_of log_p)) "O(log p)");
  check_bool "const is O(1)" true
    (String.equal (cls_label (cls_of (const 42.0))) "O(1)");
  check_bool "top is unknown" true
    (String.equal (cls_label (cls_of top)) "O(?)");
  check_bool "p^2 sorts above p" true
    (cls_compare (cls_of (mul p p)) (cls_of p) > 0);
  check_bool "unknown sorts above p^2" true
    (cls_compare Unknown (cls_of (mul p p)) > 0)

(* --- abstract expression evaluation --- *)

let test_of_expr () =
  let open Expr.Infix in
  let env = Symbolic.env ~params:[ ("n", 1024) ] ~vars:[] in
  let ev e = Symbolic.of_expr env e in
  check_sym "np is p" Symbolic.p (ev np);
  check_bool "np*np is O(p^2)" true
    (Symbolic.cls_equal
       (Symbolic.cls_of (ev (np * np)))
       (Symbolic.cls_of (Symbolic.mul Symbolic.p Symbolic.p)));
  check_bool "log2 np" true
    (Symbolic.cls_equal
       (Symbolic.cls_of (ev (log2 np)))
       (Symbolic.cls_of Symbolic.log_p));
  check_sym "params fold to constants" (Symbolic.const 1024.0) (ev (p "n"));
  check_sym "n/np shrinks"
    (Symbolic.mono ~coeff:1024.0 ~p_exp:(-1.0) ~log_exp:0.0)
    (ev (p "n" / np));
  check_bool "rank is top" true (Symbolic.is_top (ev rank));
  check_bool "unbound var is top" true (Symbolic.is_top (ev (v "ghost")))

let test_block_counts () =
  let prog =
    let open Expr.Infix in
    let b = Builder.create ~file:"bc.mmp" ~name:"bc" () in
    Builder.func b "main" (fun () ->
        [
          Builder.loop b ~var:"r" ~count:np (fun () ->
              [ Builder.comp b ~flops:(i 1) ~mem:(i 1) () ]);
        ]);
    Builder.program b
  in
  let cfg = Cfg.of_func (Ast.find_func prog "main") in
  let env = Symbolic.env ~params:[] ~vars:[] in
  let counts = Symbolic.block_counts env cfg in
  check_bool "some block runs p times" true
    (Array.exists (fun c -> Symbolic.equal c Symbolic.p) counts);
  check_bool "entry runs once" true
    (Symbolic.equal counts.(cfg.Cfg.entry) Symbolic.one)

let test_fit_exponents () =
  let lbl samples =
    match Symbolic.fit_exponents samples with
    | Some c -> Symbolic.cls_label c
    | None -> "none"
  in
  check_bool "linear samples" true
    (String.equal (lbl [ (16, 16.0); (64, 64.0); (256, 256.0) ]) "O(p)");
  check_bool "log samples" true
    (String.equal (lbl [ (16, 4.0); (64, 6.0); (256, 8.0) ]) "O(log p)");
  check_bool "flat samples" true
    (String.equal (lbl [ (16, 3.0); (64, 3.0); (256, 3.0) ]) "O(1)");
  check_bool "sqrt samples" true
    (String.equal (lbl [ (16, 4.0); (64, 8.0); (256, 16.0) ]) "O(sqrt(p))");
  check_bool "one sample is not enough" true
    (Symbolic.fit_exponents [ (16, 4.0) ] = None)

(* --- the pattern classifier --- *)

let test_classify_pattern () =
  let ring np =
    List.init np (fun r -> ((r, (r + 1) mod np), 1))
  in
  check_bool "ring" true
    (String.equal (Commcost.classify_pattern ~np:16 (ring 16) []) "ring");
  let fan_in np = List.init (np - 1) (fun r -> ((r + 1, 0), 1)) in
  check_bool "root-centralized" true
    (String.equal
       (Commcost.classify_pattern ~np:16 (fan_in 16) [])
       "root-centralized");
  let all2all np =
    List.concat_map
      (fun s ->
        List.filter_map (fun d -> if s = d then None else Some ((s, d), 1))
          (List.init np Fun.id))
      (List.init np Fun.id)
  in
  check_bool "all-to-all" true
    (String.equal
       (Commcost.classify_pattern ~np:16 (all2all 16) [])
       "all-to-all");
  (* hypercube exchange: symmetric, long hops, not dense *)
  let hypercube np =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun k ->
            let d = r lxor (1 lsl k) in
            if d < np then Some ((r, d), 1) else None)
          [ 0; 1; 2; 3 ])
      (List.init np Fun.id)
  in
  check_bool "transpose" true
    (String.equal
       (Commcost.classify_pattern ~np:16 (hypercube 16) [])
       "transpose");
  check_bool "collective only" true
    (String.equal
       (Commcost.classify_pattern ~np:16 [] [ "MPI_Allreduce" ])
       "collective")

(* --- the full analysis on synthetic programs --- *)

let test_recursion_degrades () =
  let prog =
    let open Expr.Infix in
    let b = Builder.create ~file:"mr.mmp" ~name:"mr" () in
    Builder.func b "ping" (fun () ->
        [ Builder.allreduce b ~bytes:(i 8); Builder.call b "pong" ]);
    Builder.func b "pong" (fun () -> [ Builder.call b "ping" ]);
    Builder.func b "main" (fun () -> [ Builder.call b "ping" ]);
    Builder.program b
  in
  let cc = Commcost.analyze prog in
  check_bool "walks are not exact under recursion" false (Commcost.exact cc);
  (* the symbolic side widens the mutually recursive invocations to Top,
     so the classes degrade to unknown instead of lying *)
  List.iter
    (fun (f : Commcost.fact) ->
      check_bool "recursive fact is unknown" true
        (f.Commcost.cc_cls = Symbolic.Unknown))
    (Commcost.facts cc)

(* --- inexact walks: every construct the walker cannot follow ---

   Each case appends one unanalyzable statement to a program whose
   channel structure breaks all three audit rules (rank 0 sends twice
   with tag 5, rank 1 posts one receive with tag 6, and only rank 0
   reaches the barrier).  Appended last, the statement changes nothing
   the walk records before it; only exactness.  The analysis must then
   report itself inexact, degrade every class to unknown and keep the
   audit rules silent. *)

let audit_rules =
  [ Lint.Send_recv_mismatch; Lint.Rank_tag_mismatch; Lint.Collective_divergence ]

let broken_channels ?(extra = fun _ -> []) () =
  let open Expr.Infix in
  let b = Builder.create ~file:"inexact.mmp" ~name:"inexact" () in
  Builder.func b "helper" (fun () -> [ Builder.let_ b "h" (i 1) ]);
  Builder.func b "main" (fun () ->
      [
        Builder.branch b ~cond:(rank = i 0) (fun () ->
            [
              Builder.send b ~dest:(i 1) ~tag:(i 5) ~bytes:(i 8) ();
              Builder.send b ~dest:(i 1) ~tag:(i 5) ~bytes:(i 8) ();
              Builder.barrier b;
            ]);
        Builder.branch b ~cond:(rank = i 1) (fun () ->
            [ Builder.recv b ~src:(i 0) ~tag:(i 6) ~bytes:(i 8) () ]);
        Builder.allreduce b ~bytes:(i 8 * np);
      ]
      @ extra b);
  Builder.program b

let fired_audit_rules prog =
  List.sort_uniq compare
    (List.filter_map
       (fun (f : Lint.finding) ->
         if List.mem f.Lint.rule audit_rules then
           Some (Lint.rule_name f.Lint.rule)
         else None)
       (Lint.run prog))

let test_exact_control () =
  let prog = broken_channels () in
  let cc = Commcost.analyze prog in
  check_bool "exact" true (Commcost.exact cc);
  check_bool "classes known" true
    (List.for_all
       (fun (f : Commcost.fact) -> f.Commcost.cc_cls <> Symbolic.Unknown)
       (Commcost.facts cc));
  Alcotest.(check (list string))
    "every audit rule fires"
    (List.sort compare (List.map Lint.rule_name audit_rules))
    (fired_audit_rules prog)

let check_inexact name extra () =
  let prog = broken_channels ~extra () in
  let cc = Commcost.analyze prog in
  check_bool (name ^ ": inexact") false (Commcost.exact cc);
  check_bool (name ^ ": has facts") true (Commcost.facts cc <> []);
  List.iter
    (fun (f : Commcost.fact) ->
      check_bool (name ^ ": class unknown") true
        (f.Commcost.cc_cls = Symbolic.Unknown))
    (Commcost.facts cc);
  List.iter
    (fun nprocs ->
      check_bool (name ^ ": audit inexact") false
        (Commcost.audit prog ~nprocs).Commcost.au_exact)
    [ 4; 16 ];
  Alcotest.(check (list string))
    (name ^ ": audit rules silent")
    [] (fired_audit_rules prog)

let inexact_cases =
  let open Expr.Infix in
  [
    ( "out of fuel",
      fun b ->
        [
          Builder.branch b ~cond:(rank = i 0) (fun () ->
              [
                Builder.loop b ~var:"k" ~count:(i 300_000) (fun () ->
                    [ Builder.let_ b "x" (v "k") ]);
              ]);
        ] );
    ( "loop count error",
      fun b ->
        [
          Builder.loop b ~var:"k"
            ~count:(i 8 / (rank - rank))
            (fun () -> [ Builder.let_ b "x" (v "k") ]);
        ] );
    ( "branch condition error",
      fun b ->
        [
          Builder.branch b ~cond:(v "unset") (fun () ->
              [ Builder.let_ b "x" (i 1) ]);
        ] );
    ("undefined callee", fun b -> [ Builder.call b "nowhere" ]);
    ( "undefined indirect target",
      fun b ->
        [ Builder.icall b ~selector:(rank % i 2) [ "nowhere"; "helper" ] ] );
  ]

(* The walker spends one unit of fuel per statement it visits: a pruned
   compute loop, a branch, a call and the callee's statements each count
   once.  Six units precede the barrier loop below, so a 300,000-unit
   walk covers 299,994 barriers exactly and no more. *)
let test_fuel_accounting () =
  let open Expr.Infix in
  let prog n =
    let b = Builder.create ~file:"fuel.mmp" ~name:"fuel" () in
    Builder.func b "helper" (fun () ->
        [ Builder.comp b ~flops:(i 1) ~mem:(i 1) () ]);
    Builder.func b "main" (fun () ->
        [
          Builder.loop b ~var:"k" ~count:(i 1_000_000_000) (fun () ->
              [ Builder.comp b ~flops:(i 1) ~mem:(i 1) () ]);
          Builder.branch b ~cond:(i 1) (fun () ->
              [ Builder.comp b ~flops:(i 1) ~mem:(i 1) () ]);
          Builder.call b "helper";
          Builder.loop b ~var:"k" ~count:(i n) (fun () ->
              [ Builder.barrier b ]);
        ]);
    Builder.program b
  in
  let fits = Commcost.audit (prog 299_994) ~nprocs:1 in
  check_bool "299,994 barriers fit" true fits.Commcost.au_exact;
  (match fits.Commcost.au_colls with
  | [ (_, (_, counts)) ] -> check_int "every barrier counted" 299_994 counts.(0)
  | _ -> Alcotest.fail "one collective site expected");
  check_bool "299,995 barriers run out" false
    (Commcost.audit (prog 299_995) ~nprocs:1).Commcost.au_exact

(* Pruning is a property of each loop, not of its source line: a loop
   that communicates is walked even when a compute-only loop precedes it
   on the same line. *)
let test_same_line_loops () =
  let prog =
    Parser.parse ~file:"sameline.mmp"
      "program \"sameline\"\n\
       func main() {\n\
      \  loop i = 1000 { comp flops=1 mem=1 ints=0 locality=0.5; } loop j = 3 \
       { barrier; }\n\
       }\n"
  in
  match (Commcost.audit prog ~nprocs:2).Commcost.au_colls with
  | [ (_, (_, counts)) ] -> check_int "every barrier counted" 3 counts.(0)
  | _ -> Alcotest.fail "one collective site expected"

(* --- acceptance pins: known hotspot classes across the registry --- *)

let fact_class cc ~func ~op =
  List.find_map
    (fun (f : Commcost.fact) ->
      if String.equal f.Commcost.cc_func func && String.equal f.Commcost.cc_op op
      then Some (Symbolic.cls_label f.Commcost.cc_cls)
      else None)
    (Commcost.facts cc)

let pattern_of cc func = List.assoc_opt func (Commcost.patterns cc)

let analyze name =
  Commcost.analyze ((Scalana_apps.Registry.find name).Scalana_apps.Registry.make ())

let test_registry_hotspots () =
  (* cg: the hypercube transpose exchange — the paper's running example —
     must classify as O(p) network pressure with a transpose pattern *)
  let cg = analyze "cg" in
  check_bool "cg walks exact" true (Commcost.exact cg);
  Alcotest.(check (option string))
    "cg transpose is O(p)" (Some "O(p)")
    (fact_class cg ~func:"conj_grad" ~op:"MPI_Sendrecv");
  Alcotest.(check (option string))
    "cg pattern" (Some "transpose")
    (pattern_of cg "conj_grad");
  (* ft and is: alltoall volume — O(p) pressure *)
  Alcotest.(check (option string))
    "ft alltoall is O(p)" (Some "O(p)")
    (fact_class (analyze "ft") ~func:"transpose" ~op:"MPI_Alltoall");
  (* bt: square-grid halo — row exchanges dilate with the grid side *)
  let bt = analyze "bt" in
  Alcotest.(check (option string))
    "bt pattern" (Some "nearest-neighbor")
    (pattern_of bt "adi_step");
  (* mg: ring neighbours stay O(1) *)
  let mg = analyze "mg" in
  (match fact_class mg ~func:"residual" ~op:"MPI_Sendrecv" with
  | Some l -> check_bool "mg halo is O(1)" true (String.equal l "O(1)")
  | None -> Alcotest.fail "mg residual sendrecv fact missing");
  (* every registry app analyzes without dying, and allreduces are
     logarithmic wherever they appear *)
  List.iter
    (fun name ->
      let cc = analyze name in
      List.iter
        (fun (f : Commcost.fact) ->
          if String.equal f.Commcost.cc_op "MPI_Allreduce" && Commcost.exact cc
          then
            check_bool
              (name ^ " allreduce is O(log p)")
              true
              (String.equal (Symbolic.cls_label f.Commcost.cc_cls) "O(log p)"))
        (Commcost.facts cc))
    Scalana_apps.Registry.names

(* --- pins: the static outputs, byte for byte ---

   The [scalana-static --predict] tables are the committed files under
   ci/predict; the channel audits, the model-time series and the stored
   static artifacts are pinned by digest over the eleven programs. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_predict_tables () =
  List.iter
    (fun name ->
      check_string (name ^ " --predict")
        (read_file (Filename.concat "../ci/predict" (name ^ ".expected")))
        (Fmt.str "%a" Commcost.render (analyze name)))
    Scalana_apps.Registry.names

let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let check_digests what expected f =
  check_int
    (what ^ ": one digest per program")
    (List.length Scalana_apps.Registry.names)
    (List.length expected);
  List.iter
    (fun name ->
      let prog =
        (Scalana_apps.Registry.find name).Scalana_apps.Registry.make ()
      in
      check_string (name ^ " " ^ what) (List.assoc name expected)
        (digest (f prog)))
    Scalana_apps.Registry.names

let expected_audit_digests =
  [
    ("bt", "f3dc874c1c7e2d1d129043632e47a030");
    ("cg", "4df7a64cd25ab1f96a0f4cadb005e6b5");
    ("ep", "79964d872d6f70285e4f6c55aa7d0c1d");
    ("ft", "18cd452347b36ef91977e6568eed442a");
    ("mg", "1219acd8ef56327a61c4ace092158d19");
    ("sp", "964563912adb57fdae6e1d4e1f73ce21");
    ("lu", "c5cf14a99811f384463285e665175fbb");
    ("is", "ed3651c913021e5a3144f41120d83807");
    ("sst", "d0a6ae61c9a8dc9271c1c3ea7443d3c0");
    ("nekbone", "612bce099eb9c8c9ba32f8a51154c38c");
    ("zeusmp", "76512ee51d95353e3440c32db599b509");
  ]

let expected_model_series_digests =
  [
    ("bt", "88d812dac02ea213983338a08b74b5b5");
    ("cg", "95336e268b363ccc0e959585981bcf9b");
    ("ep", "f2b4af51a59d18c1f803a13cc74d4a20");
    ("ft", "519cc43eec5ebf3c0870083b3b3e6aa7");
    ("mg", "f334fa890f321744687ecfce3fc9e9c9");
    ("sp", "724436f3c6879a20b7b17d1cbbe82189");
    ("lu", "f2231668ccefa8b8baa644c0821ab26f");
    ("is", "e34594c36618c2ffb4163360c8b33953");
    ("sst", "20c56d29785af813f41ed7921bb09b0a");
    ("nekbone", "7d518408634ae8ca52193f1cedb12985");
    ("zeusmp", "269a2022e6e0216d6877a581dfdbebaf");
  ]

let test_audit_digests () =
  check_digests "audit at 4 and 16" expected_audit_digests (fun prog ->
      (Commcost.audit prog ~nprocs:4, Commcost.audit prog ~nprocs:16))

let test_model_series_digests () =
  check_digests "model series at 4..32" expected_model_series_digests
    (fun prog -> Commcost.model_series prog ~scales:[ 4; 8; 16; 32 ])

(* --- the static/dynamic cross-check on a real session --- *)

let test_crosscheck_cg () =
  let entry = Scalana_apps.Registry.find "cg" in
  let scales = Scalana_apps.Registry.scales entry ~min_np:4 ~max_np:16 in
  let config = { Scalana.Config.default with static_crosscheck = true } in
  let pipe =
    Scalana.Pipeline.run ~config
      ~cost:entry.Scalana_apps.Registry.cost ~scales
      (entry.Scalana_apps.Registry.make ())
  in
  match pipe.Scalana.Pipeline.analysis.Scalana_detect.Rootcause.crosscheck with
  | None -> Alcotest.fail "crosscheck requested but absent"
  | Some cx ->
      check_bool "at least one verdict" true
        (cx.Scalana_detect.Crosscheck.cx_verdicts <> []);
      check_bool "cg verdicts all confirmed" true
        (List.for_all
           (fun (v : Scalana_detect.Crosscheck.verdict) ->
             v.Scalana_detect.Crosscheck.cv_agrees = Some true)
           cx.Scalana_detect.Crosscheck.cx_verdicts);
      check_int "no mismatches" 0
        (List.length (Scalana_detect.Crosscheck.mismatches cx))

let () =
  Alcotest.run "symbolic"
    [
      ( "domain",
        [
          Alcotest.test_case "operations" `Quick test_domain_ops;
          Alcotest.test_case "classes" `Quick test_classes;
          Alcotest.test_case "of_expr" `Quick test_of_expr;
          Alcotest.test_case "block counts" `Quick test_block_counts;
          Alcotest.test_case "fit exponents" `Quick test_fit_exponents;
        ] );
      ( "patterns",
        [ Alcotest.test_case "classifier" `Quick test_classify_pattern ] );
      ( "commcost",
        [
          Alcotest.test_case "recursion degrades" `Quick
            test_recursion_degrades;
          Alcotest.test_case "registry hotspots" `Quick test_registry_hotspots;
          Alcotest.test_case "exact walk fires the audit rules" `Quick
            test_exact_control;
        ]
        @ List.map
            (fun (name, extra) ->
              Alcotest.test_case ("inexact: " ^ name) `Quick
                (check_inexact name extra))
            inexact_cases
        @ [
            Alcotest.test_case "fuel accounting" `Quick test_fuel_accounting;
            Alcotest.test_case "loops sharing a line prune apart" `Quick
              test_same_line_loops;
            Alcotest.test_case "predict tables" `Quick test_predict_tables;
            Alcotest.test_case "audits pinned by digest" `Quick
              test_audit_digests;
            Alcotest.test_case "model series pinned by digest" `Quick
              test_model_series_digests;
          ] );
      ( "crosscheck",
        [ Alcotest.test_case "cg session confirms" `Quick test_crosscheck_cg ]
      );
    ]
