(* Tests for PSG construction: intra-/inter-procedural analysis,
   contraction, statistics and the attribution index. *)

open Scalana_mlang
open Scalana_psg
open Testutil

let count psg pred = List.length (Psg.find_all pred psg)

(* One function's local PSG. *)
let local prog name = Hashtbl.find (Intra.build_all prog) name

(* --- intra --- *)

let test_intra_fig3 () =
  let prog = fig3_program () in
  let local_main = local prog "main" in
  (* root + loop1 + (comp, loop1_1(+comp), loop1_2(+comp), call, bcast) *)
  check_int "main vertices" 9 (Psg.n_vertices local_main);
  check_int "loops" 3 (count local_main Vertex.is_loop);
  check_int "comps" 3 (count local_main Vertex.is_comp);
  check_int "mpi" 1 (count local_main Vertex.is_mpi);
  check_int "callsites" 1 (count local_main Vertex.is_callsite);
  let local_foo = local prog "foo" in
  check_int "foo branch" 1 (count local_foo Vertex.is_branch);
  check_int "foo mpi" 2 (count local_foo Vertex.is_mpi)

let test_intra_exec_order () =
  let prog = fig3_program () in
  let psg = local prog "main" in
  (* pre-order: every vertex appears after its parent *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun id ->
      (match Psg.parent psg id with
      | Some parent ->
          check_bool "parent before child" true (Hashtbl.mem seen parent)
      | None -> ());
      Hashtbl.replace seen id ())
    (List.rev (Psg.fold (fun acc v -> v.Vertex.id :: acc) [] psg))

let test_sibling_navigation () =
  let prog = fig3_program () in
  let psg = local prog "main" in
  let root = Psg.root psg in
  match Psg.children psg root with
  | [ loop1 ] -> (
      match Psg.children psg loop1 with
      | first :: second :: _ ->
          check_bool "prev of first is none" true
            (Psg.prev_sibling psg first = None);
          (match Psg.prev_sibling psg second with
          | Some p -> check_int "prev sibling" first p
          | None -> Alcotest.fail "second has prev");
          (match Psg.next_sibling psg first with
          | Some n -> check_int "next sibling" second n
          | None -> Alcotest.fail "first has next");
          (match Psg.last_child psg loop1 with
          | Some last ->
              check_bool "last child has no next" true
                (Psg.next_sibling psg last = None)
          | None -> Alcotest.fail "loop has children")
      | _ -> Alcotest.fail "loop1 should have several children")
  | _ -> Alcotest.fail "root should have exactly loop1"

(* --- inter --- *)

let test_inter_inlines_direct_calls () =
  let prog = fig3_program () in
  let full = Inter.build prog in
  (* foo's branch and MPI pair appear inlined; no unresolved callsites *)
  check_int "no callsites" 0 (count full Vertex.is_callsite);
  check_int "branch inlined" 1 (count full Vertex.is_branch);
  check_int "mpi inlined" 3 (count full Vertex.is_mpi);
  (* inlined vertices carry the extended callpath *)
  let branch = List.hd (Psg.find_all Vertex.is_branch full) in
  check_int "callpath depth" 1 (List.length branch.Vertex.callpath)

let test_inter_recursion_cycle () =
  let prog = recursion_program () in
  let full = Inter.build prog in
  let rec_sites =
    Psg.find_all
      (fun v ->
        match v.Vertex.kind with
        | Vertex.Callsite { recursive = true; _ } -> true
        | _ -> false)
      full
  in
  check_int "one recursive callsite" 1 (List.length rec_sites);
  let site = List.hd rec_sites in
  (match Psg.cycle_target full site.Vertex.id with
  | Some _ -> ()
  | None -> Alcotest.fail "recursive callsite should carry a cycle edge");
  (* the indirect call remains unresolved *)
  let indirect =
    Psg.find_all
      (fun v ->
        match v.Vertex.kind with
        | Vertex.Callsite { callee = None; _ } -> true
        | _ -> false)
      full
  in
  check_int "one indirect callsite" 1 (List.length indirect)

let test_refine_indirect () =
  let prog = recursion_program () in
  let locals = Intra.build_all prog in
  let full = Inter.build ~locals prog in
  let site =
    List.hd
      (Psg.find_all
         (fun v ->
           match v.Vertex.kind with
           | Vertex.Callsite { callee = None; _ } -> true
           | _ -> false)
         full)
  in
  let before = Psg.n_vertices full in
  (match Inter.refine_indirect full ~locals ~callsite:site.Vertex.id ~target:"alpha" with
  | Some _ -> ()
  | None -> Alcotest.fail "first refinement should splice");
  check_bool "vertices grew" true (Psg.n_vertices full > before);
  (* idempotent *)
  (match Inter.refine_indirect full ~locals ~callsite:site.Vertex.id ~target:"alpha" with
  | None -> ()
  | Some _ -> Alcotest.fail "second refinement should be a no-op");
  (* second target splices separately *)
  (match Inter.refine_indirect full ~locals ~callsite:site.Vertex.id ~target:"beta" with
  | Some _ -> ()
  | None -> Alcotest.fail "beta should splice");
  match (Psg.vertex full site.Vertex.id).Vertex.kind with
  | Vertex.Callsite { targets; _ } ->
      check_bool "targets recorded" true
        (List.mem "alpha" targets && List.mem "beta" targets)
  | _ -> Alcotest.fail "site kind changed unexpectedly"


let test_psg_navigation_helpers () =
  let prog = fig3_program () in
  let psg = Inter.build prog in
  (* every non-root vertex has the root among its ancestors *)
  let root = Psg.root psg in
  Psg.iter
    (fun v ->
      if v.Vertex.id <> root then begin
        let anc = Psg.ancestors psg v.Vertex.id in
        check_bool "root is an ancestor" true (List.mem root anc)
      end)
    psg;
  (* loop_depth of a comp inside loop1_1 is 2 *)
  let sum_comp =
    List.find
      (fun v ->
        match v.Vertex.kind with
        | Vertex.Comp { label = Some "sum"; _ } -> true
        | _ -> false)
      (Psg.find_all Vertex.is_comp psg)
  in
  check_int "nested loop depth" 2
    (List.length
       (List.filter
          (fun a -> Vertex.is_loop (Psg.vertex psg a))
          (Psg.ancestors psg sum_comp.Vertex.id)));
  (* the 32-bytes-per-vertex memory model of Section VI-C *)
  check_int "memory model" (32 * Psg.n_vertices psg) (Psg.memory_bytes psg)

(* --- contraction --- *)

let test_contract_preserves_mpi () =
  List.iter
    (fun name ->
      let entry = Scalana_apps.Registry.find name in
      let prog = entry.make () in
      let full = Inter.build prog in
      let contraction = Contract.run full in
      let mpi_before = count full Vertex.is_mpi in
      let mpi_after = count contraction.Contract.psg Vertex.is_mpi in
      check_int (name ^ " mpi preserved") mpi_before mpi_after;
      check_bool
        (name ^ " contraction shrinks")
        true
        (Psg.n_vertices contraction.Contract.psg <= Psg.n_vertices full))
    Scalana_apps.Registry.names

let test_contract_merges_comps () =
  let prog =
    let open Expr.Infix in
    let b = Builder.create ~file:"c.mmp" ~name:"c" () in
  Builder.func b "main" (fun () ->
      [
        Builder.comp b ~flops:(i 1) ~mem:(i 1) ();
        Builder.comp b ~flops:(i 2) ~mem:(i 2) ();
        Builder.comp b ~flops:(i 3) ~mem:(i 3) ();
        Builder.barrier b;
        Builder.comp b ~flops:(i 4) ~mem:(i 4) ();
      ]);
    Builder.program b
  in
  let full = Inter.build prog in
  let c = Contract.run full in
  (* three leading comps merge into one; the barrier splits the run *)
  check_int "comps after" 2 (count c.Contract.psg Vertex.is_comp);
  let merged =
    Psg.find_all
      (fun v ->
        match v.Vertex.kind with
        | Vertex.Comp { merged; _ } -> merged = 3
        | _ -> false)
      c.Contract.psg
  in
  check_int "merged count carried" 1 (List.length merged)

let test_contract_max_loop_depth () =
  let prog =
    let open Expr.Infix in
    let b = Builder.create ~file:"d.mmp" ~name:"d" () in
  Builder.func b "main" (fun () ->
      [
        Builder.loop b ~var:"a" ~count:(i 2) (fun () ->
            [
              Builder.loop b ~var:"bb" ~count:(i 2) (fun () ->
                  [
                    Builder.loop b ~var:"c" ~count:(i 2) (fun () ->
                        [ Builder.comp b ~flops:(i 1) ~mem:(i 1) () ]);
                  ]);
            ]);
        Builder.barrier b;
      ]);
    Builder.program b
  in
  let full = Inter.build prog in
  let deep = Contract.run ~max_loop_depth:10 full in
  check_int "all loops kept" 3 (count deep.Contract.psg Vertex.is_loop);
  let shallow = Contract.run ~max_loop_depth:2 full in
  check_int "third loop collapsed" 2 (count shallow.Contract.psg Vertex.is_loop);
  let flat = Contract.run ~max_loop_depth:0 full in
  check_int "no loops kept" 0 (count flat.Contract.psg Vertex.is_loop)

let test_contract_branch_hoists_loops () =
  let prog =
    let open Expr.Infix in
    let b = Builder.create ~file:"h.mmp" ~name:"h" () in
  Builder.func b "main" (fun () ->
      [
        Builder.branch b
          ~cond:(rank % i 4 = i 0)
          (fun () ->
            [
              Builder.loop b ~label:"inner" ~var:"j" ~count:(i 8) (fun () ->
                  [ Builder.comp b ~flops:(i 9) ~mem:(i 9) () ]);
            ]);
        Builder.barrier b;
      ]);
    Builder.program b
  in
  let full = Inter.build prog in
  let c = Contract.run full in
  (* the MPI-free branch vanishes but its loop survives *)
  check_int "branch dropped" 0 (count c.Contract.psg Vertex.is_branch);
  check_int "loop kept" 1 (count c.Contract.psg Vertex.is_loop)

let test_contract_keeps_branch_with_mpi () =
  let prog = fig3_program () in
  let full = Inter.build prog in
  let c = Contract.run full in
  check_int "branch with MPI kept" 1 (count c.Contract.psg Vertex.is_branch)

let test_orig_to_new_total () =
  let prog = fig3_program () in
  let full = Inter.build prog in
  let c = Contract.run full in
  (* every original vertex maps to a vertex of the contracted graph *)
  Psg.iter
    (fun v ->
      match Contract.new_id c v.Vertex.id with
      | Some nid ->
          check_bool "target exists" true
            (Psg.vertex_opt c.Contract.psg nid <> None)
      | None -> Alcotest.failf "vertex %d unmapped" v.Vertex.id)
    full

let test_contract_edge_cases () =
  let open Expr.Infix in
  (* MPI directly under root, plus a loop whose body is pure compute *)
  let prog =
    let b = Builder.create ~file:"e.mmp" ~name:"e" () in
    Builder.func b "main" (fun () ->
        [
          Builder.barrier b;
          Builder.loop b ~var:"k" ~count:(i 8) (fun () ->
              [
                Builder.comp b ~flops:(i 1) ~mem:(i 1) ();
                Builder.comp b ~flops:(i 2) ~mem:(i 2) ();
              ]);
          Builder.allreduce b ~bytes:(i 8);
        ]);
    Builder.program b
  in
  let full = Inter.build prog in
  let assert_total c =
    Psg.iter
      (fun v ->
        match Contract.new_id c v.Vertex.id with
        | Some nid ->
            check_bool "mapped vertex exists" true
              (Option.is_some (Psg.vertex_opt c.Contract.psg nid))
        | None -> Alcotest.failf "vertex %d unmapped" v.Vertex.id)
      full
  in
  let deep = Contract.run full in
  check_int "mpi under root survives" 2 (count deep.Contract.psg Vertex.is_mpi);
  (* the two comps merge: the loop body contracts to a single vertex *)
  check_int "loop body fully merged" 1 (count deep.Contract.psg Vertex.is_comp);
  assert_total deep;
  (* with depth 0 the loop itself is contracted away too *)
  let flat = Contract.run ~max_loop_depth:0 full in
  check_int "no loops at depth 0" 0 (count flat.Contract.psg Vertex.is_loop);
  check_int "mpi still preserved" 2 (count flat.Contract.psg Vertex.is_mpi);
  assert_total flat

let test_crosscheck_all_registry () =
  (* CFG-side structure recovery agrees with the PSG on every shipped
     app, not just the spot-checked ones *)
  List.iter
    (fun (e : Scalana_apps.Registry.entry) ->
      let prog = e.make () in
      List.iter
        (fun (f : Ast.func) ->
          match Intra.crosscheck f with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s/%s: %s" e.name f.fname msg)
        prog.funcs)
    Scalana_apps.Registry.all

(* --- data-dependence annotation --- *)

let datadep_fixture () =
  let open Expr.Infix in
  let b = Builder.create ~file:"dd.mmp" ~name:"dd" () in
  Builder.func b "main" (fun () ->
      [
        Builder.isend b ~dest:(rank + i 1) ~bytes:(i 8) ~req:"r0" ();
        Builder.irecv b ~bytes:(i 8) ~req:"r1" ();
        Builder.comp b ~flops:(i 1000) ~mem:(i 100) ();
        Builder.waitall b ~reqs:[ "r0"; "r1" ];
      ]);
  Builder.program b

let test_datadep_edges () =
  let prog = datadep_fixture () in
  let full = Inter.build prog in
  let contraction = Contract.run full in
  let summary = Datadep.annotate ~full ~contraction prog in
  let psg = contraction.Contract.psg in
  check_bool "edges recorded" true (summary.Datadep.edges >= 2);
  check_int "edge counter matches" summary.Datadep.edges
    (Psg.n_data_dep_edges psg);
  let find label =
    match
      Psg.find_all (fun v -> Vertex.label v = label) psg
    with
    | [ v ] -> v.Vertex.id
    | _ -> Alcotest.failf "expected one %s vertex" label
  in
  let isend = find "MPI_Isend" in
  let irecv = find "MPI_Irecv" in
  let waitall = find "MPI_Waitall" in
  let deps = Psg.data_deps psg waitall in
  check_bool "waitall depends on its isend" true (List.mem isend deps);
  check_bool "waitall depends on its irecv" true (List.mem irecv deps);
  (* the intervening comp carries no value into the waitall *)
  List.iter
    (fun (v : Vertex.t) ->
      check_bool "comp not a dependency" true (not (List.mem v.Vertex.id deps)))
    (Psg.find_all Vertex.is_comp psg)

let test_datadep_chains_through_let () =
  let open Expr.Infix in
  (* the let produces no vertex: the use must chain through it to the
     defining loop header *)
  let prog =
    let b = Builder.create ~file:"dl.mmp" ~name:"dl" () in
    Builder.func b "main" (fun () ->
        [
          Builder.loop b ~var:"it" ~count:(i 4) (fun () ->
              [
                Builder.barrier b;
                Builder.let_ b "w" (v "it" * i 100);
                Builder.comp b ~flops:(v "w") ~mem:(i 1) ();
              ]);
        ]);
    Builder.program b
  in
  let full = Inter.build prog in
  let contraction = Contract.run full in
  ignore (Datadep.annotate ~full ~contraction prog);
  let psg = contraction.Contract.psg in
  let loop =
    match Psg.find_all Vertex.is_loop psg with
    | [ v ] -> v.Vertex.id
    | _ -> Alcotest.fail "expected one loop"
  in
  let comp =
    match Psg.find_all Vertex.is_comp psg with
    | [ v ] -> v.Vertex.id
    | _ -> Alcotest.fail "expected one comp"
  in
  check_bool "comp chains through the let to the loop" true
    (List.mem loop (Psg.data_deps psg comp))

(* --- stats --- *)

let test_stats_table2_shape () =
  let entry = Scalana_apps.Registry.find "zeusmp" in
  let prog = entry.make () in
  let full = Inter.build prog in
  let c = Contract.run full in
  let stats =
    Stats.of_psgs ~defs:0 ~uses:0 ~dd_edges:0 ~preds:0 ~program:"zeus-mp"
      ~lines:(Ast.line_count prog) ~full ~contracted:c.Contract.psg
  in
  check_bool "vbc >= vac" true (stats.Stats.vbc >= stats.Stats.vac);
  check_bool "has loops" true (stats.Stats.loops > 0);
  check_bool "has mpi" true (stats.Stats.mpis > 0);
  check_bool "kloc positive" true (stats.Stats.kloc > 0.0);
  check_bool "ratio in [0,1]" true
    (Stats.contraction_ratio stats >= 0.0 && Stats.contraction_ratio stats <= 1.0)

(* --- index --- *)

let test_index_exact_and_fallback () =
  let prog = recursion_program () in
  let locals = Intra.build_all prog in
  let full = Inter.build ~locals prog in
  let contraction = Contract.run full in
  let index = Index.build ~full ~contraction in
  check_bool "index nonempty" true (Index.size index > 0);
  (* exact: the comp of walk at depth one *)
  let walk_comp =
    Psg.find_all
      (fun v ->
        match v.Vertex.kind with
        | Vertex.Comp { label = Some l; _ } ->
            String.length l >= 4 && String.sub l 0 4 = "walk"
        | _ -> false)
      full
    |> List.hd
  in
  (match
     Index.exact index ~callpath:walk_comp.Vertex.callpath
       ~loc:walk_comp.Vertex.loc
   with
  | Some _ -> ()
  | None -> Alcotest.fail "exact lookup failed");
  (* fallback: a recursive re-entry (extra synthetic frame) still lands *)
  let deeper = walk_comp.Vertex.callpath @ [ walk_comp.Vertex.loc ] in
  (match Index.find index ~callpath:deeper ~loc:walk_comp.Vertex.loc with
  | Some _ -> ()
  | None -> Alcotest.fail "recursive fallback failed");
  (* a loc that exists nowhere *)
  match
    Index.find index ~callpath:[] ~loc:(Loc.v ~file:"nope.mmp" ~line:1)
  with
  | None -> ()
  | Some _ -> Alcotest.fail "bogus loc should not resolve"

let test_index_after_refinement () =
  let prog = recursion_program () in
  let locals = Intra.build_all prog in
  let full = Inter.build ~locals prog in
  let contraction = Contract.run full in
  let index = Index.build ~full ~contraction in
  let site =
    List.hd
      (Psg.find_all
         (fun v ->
           match v.Vertex.kind with
           | Vertex.Callsite { callee = None; _ } -> true
           | _ -> false)
         contraction.Contract.psg)
  in
  (match
     Inter.refine_indirect contraction.Contract.psg ~locals
       ~callsite:site.Vertex.id ~target:"alpha"
   with
  | Some sub_root ->
      Index.index_contracted_subtree index sub_root;
      (* the alpha comp is now attributable under the icall frame *)
      let alpha = Ast.find_func prog "alpha" in
      let comp_loc =
        match alpha.fbody with s :: _ -> s.Ast.loc | [] -> assert false
      in
      let callpath = site.Vertex.callpath @ [ site.Vertex.loc ] in
      (match Index.find index ~callpath ~loc:comp_loc with
      | Some _ -> ()
      | None -> Alcotest.fail "refined vertex not indexed")
  | None -> Alcotest.fail "refinement failed")

(* property: contraction is idempotent on vertex counts *)
let contract_idempotent =
  qtest ~count:20 "contraction idempotent"
    QCheck2.Gen.(int_range 0 10)
    (fun depth ->
      let entry = Scalana_apps.Registry.find "cg" in
      let prog = entry.make () in
      let full = Inter.build prog in
      let once = Contract.run ~max_loop_depth:depth full in
      let twice = Contract.run ~max_loop_depth:depth once.Contract.psg in
      Psg.n_vertices once.Contract.psg = Psg.n_vertices twice.Contract.psg)

let () =
  Alcotest.run "psg"
    [
      ( "intra",
        [
          Alcotest.test_case "fig3 local graphs" `Quick test_intra_fig3;
          Alcotest.test_case "pre-order" `Quick test_intra_exec_order;
          Alcotest.test_case "sibling navigation" `Quick
            test_sibling_navigation;
        ] );
      ( "inter",
        [
          Alcotest.test_case "inlines direct calls" `Quick
            test_inter_inlines_direct_calls;
          Alcotest.test_case "recursion becomes cycle" `Quick
            test_inter_recursion_cycle;
          Alcotest.test_case "indirect refinement" `Quick test_refine_indirect;
        ] );
      ( "navigation",
        [ Alcotest.test_case "ancestors/depth/memory" `Quick
            test_psg_navigation_helpers ] );
      ( "contract",
        [
          Alcotest.test_case "preserves MPI (all apps)" `Quick
            test_contract_preserves_mpi;
          Alcotest.test_case "merges adjacent comps" `Quick
            test_contract_merges_comps;
          Alcotest.test_case "MaxLoopDepth" `Quick test_contract_max_loop_depth;
          Alcotest.test_case "MPI-free branch hoists loops" `Quick
            test_contract_branch_hoists_loops;
          Alcotest.test_case "branch with MPI kept" `Quick
            test_contract_keeps_branch_with_mpi;
          Alcotest.test_case "orig->new total" `Quick test_orig_to_new_total;
          Alcotest.test_case "edge cases" `Quick test_contract_edge_cases;
          contract_idempotent;
        ] );
      ( "crosscheck",
        [
          Alcotest.test_case "all registry apps" `Quick
            test_crosscheck_all_registry;
        ] );
      ( "datadep",
        [
          Alcotest.test_case "waitall edges" `Quick test_datadep_edges;
          Alcotest.test_case "chains through let" `Quick
            test_datadep_chains_through_let;
        ] );
      ("stats", [ Alcotest.test_case "table2 shape" `Quick test_stats_table2_shape ]);
      ( "index",
        [
          Alcotest.test_case "exact and fallback" `Quick
            test_index_exact_and_fallback;
          Alcotest.test_case "after refinement" `Quick
            test_index_after_refinement;
        ] );
    ]
