(* Tests for the CFG substrate: lowering, dominance, natural loops, and
   the program call graph. *)

open Scalana_mlang
open Scalana_cfg
open Testutil

let func_of prog name = Ast.find_func prog name

let test_straightline () =
  let prog =
    let open Expr.Infix in
    let b = Builder.create ~file:"s.mmp" ~name:"s" () in
  Builder.func b "main" (fun () ->
      [
        Builder.comp b ~flops:(i 1) ~mem:(i 1) ();
        Builder.comp b ~flops:(i 2) ~mem:(i 2) ();
        Builder.barrier b;
      ]);
    Builder.program b
  in
  let cfg = Cfg.of_func (func_of prog "main") in
  check_int "one block" 1 (Cfg.n_blocks cfg);
  check_int "stmts in entry" 3 (List.length (Cfg.block cfg cfg.entry).stmts);
  match (Cfg.block cfg cfg.entry).term with
  | Cfg.Ret -> ()
  | Cfg.Jump _ | Cfg.Cond _ -> Alcotest.fail "entry should return"

let test_loop_shape () =
  let prog =
    let open Expr.Infix in
    let b = Builder.create ~file:"l.mmp" ~name:"l" () in
  Builder.func b "main" (fun () ->
      [
        Builder.loop b ~var:"i" ~count:(i 10) (fun () ->
            [ Builder.comp b ~flops:(i 1) ~mem:(i 1) () ]);
      ]);
    Builder.program b
  in
  let cfg = Cfg.of_func (func_of prog "main") in
  (* entry, header, body, latch, exit *)
  check_int "blocks" 5 (Cfg.n_blocks cfg);
  check_int "edges" 5
    (Array.fold_left (fun n ps -> n + List.length ps) 0 (Cfg.predecessors cfg));
  let headers =
    Array.to_list cfg.blocks
    |> List.filter (fun (blk : Cfg.block) ->
           match blk.origin with Cfg.Loop_header _ -> true | _ -> false)
  in
  check_int "one header" 1 (List.length headers)

let test_branch_diamond () =
  let prog =
    let open Expr.Infix in
    let b = Builder.create ~file:"b.mmp" ~name:"b" () in
  Builder.func b "main" (fun () ->
      [
        Builder.branch b
          ~cond:(rank = i 0)
          ~else_:(fun () -> [ Builder.comp b ~flops:(i 2) ~mem:(i 2) () ])
          (fun () -> [ Builder.comp b ~flops:(i 1) ~mem:(i 1) () ]);
      ]);
    Builder.program b
  in
  let cfg = Cfg.of_func (func_of prog "main") in
  (* entry, cond, then, else, join *)
  check_int "blocks" 5 (Cfg.n_blocks cfg);
  let dom = Dominance.compute cfg in
  let cond_block =
    Array.to_list cfg.blocks
    |> List.find (fun (blk : Cfg.block) ->
           match blk.origin with Cfg.Branch_cond _ -> true | _ -> false)
  in
  (match cond_block.term with
  | Cfg.Cond { on_true; on_false; _ } ->
      check_bool "cond doms then" true
        (Dominance.dominates dom cond_block.id on_true);
      check_bool "cond doms else" true
        (Dominance.dominates dom cond_block.id on_false);
      check_bool "then !doms exit" false
        (Dominance.dominates dom on_true cfg.exit_)
  | Cfg.Jump _ | Cfg.Ret -> Alcotest.fail "expected Cond terminator");
  check_bool "entry doms exit" true
    (Dominance.dominates dom cfg.entry cfg.exit_)

let test_dominance_properties () =
  let prog = Testutil.fig3_program () in
  List.iter
    (fun (f : Ast.func) ->
      let cfg = Cfg.of_func f in
      let dom = Dominance.compute cfg in
      List.iter
        (fun id ->
          check_bool "entry dominates" true
            (Dominance.dominates dom cfg.entry id);
          match Dominance.idom dom id with
          | None -> check_int "only entry has no idom" cfg.entry id
          | Some idom ->
              check_bool "idom dominates" true (Dominance.dominates dom idom id);
              check_bool "idom is not self" true (idom <> id))
        (Cfg.reverse_postorder cfg))
    prog.funcs

let test_natural_loops_match_ast () =
  List.iter
    (fun name ->
      let entry = Scalana_apps.Registry.find name in
      let prog = entry.make () in
      List.iter
        (fun (f : Ast.func) ->
          match Scalana_psg.Intra.crosscheck f with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: %s" name msg)
        prog.funcs)
    Scalana_apps.Registry.names

let test_loop_depths () =
  let prog = Testutil.fig3_program () in
  let cfg = Cfg.of_func (func_of prog "main") in
  let loops = Loops.compute cfg in
  check_int "loops" 3 (Loops.count loops);
  check_int "max depth" 2 (Loops.max_depth loops);
  List.iter
    (fun (l : Loops.loop) ->
      check_bool "header in body" true (List.mem l.header l.body);
      check_bool "latch in body" true (List.mem l.latch l.body))
    (Loops.loops loops)

let test_rpo_starts_at_entry () =
  let prog = Testutil.fig3_program () in
  let cfg = Cfg.of_func (func_of prog "main") in
  match Cfg.reverse_postorder cfg with
  | first :: _ -> check_int "entry first" cfg.entry first
  | [] -> Alcotest.fail "empty RPO"

(* --- dataflow --- *)

module BoolLattice = struct
  type t = bool

  let bottom = false
  let equal = Bool.equal
  let join = ( || )
end

module BoolSolver = Dataflow.Solver (BoolLattice)

let diamond_program () =
  let open Expr.Infix in
  let b = Builder.create ~file:"df.mmp" ~name:"df" () in
  Builder.func b "main" (fun () ->
      [
        Builder.comp b ~flops:(i 1) ~mem:(i 1) ();
        Builder.branch b
          ~cond:(rank = i 0)
          ~else_:(fun () -> [ Builder.comp b ~flops:(i 2) ~mem:(i 2) () ])
          (fun () -> [ Builder.comp b ~flops:(i 3) ~mem:(i 3) () ]);
        Builder.barrier b;
      ]);
  Builder.program b

let test_solver_reachability () =
  (* identity transfer with a [true] entry fact marks every block
     reachable from the entry — on a diamond that is all of them *)
  let cfg = Cfg.of_func (func_of (diamond_program ()) "main") in
  let fwd =
    BoolSolver.solve ~entry_fact:true ~transfer:(fun _ fact -> fact) cfg
  in
  Array.iteri
    (fun id reached -> check_bool (Printf.sprintf "fwd block %d" id) true reached)
    fwd.BoolSolver.output

let test_solver_fixpoint () =
  (* the returned solution really is a fixed point: re-applying the join
     and the transfer changes nothing, and every block was popped at
     least once (the iteration count proves the worklist visited it) *)
  let cfg = Cfg.of_func (func_of (diamond_program ()) "main") in
  let transfer _ fact = fact in
  let r = BoolSolver.solve ~entry_fact:true ~transfer cfg in
  check_bool "at least one pop per block" true
    (r.BoolSolver.iterations >= Cfg.n_blocks cfg);
  let preds = Cfg.predecessors cfg in
  Array.iteri
    (fun id out ->
      let in_fact =
        List.fold_left
          (fun acc p -> acc || r.BoolSolver.output.(p))
          (id = cfg.Cfg.entry) preds.(id)
      in
      check_bool (Printf.sprintf "input %d stable" id)
        r.BoolSolver.input.(id) in_fact;
      check_bool (Printf.sprintf "output %d stable" id) out (transfer id in_fact))
    r.BoolSolver.output

(* entry -> {a, b}; a <-> b; a -> exit.  The cycle {a, b} is entered at
   two blocks, so neither edge is a back edge to a dominator: the graph
   is irreducible.  [Cfg.of_func] can never produce this shape (the AST
   is structured), so it is built by hand. *)
let irreducible_cfg () =
  let blk id term = { Cfg.id; stmts = []; term; origin = Cfg.Plain } in
  {
    Cfg.fname = "irreducible";
    entry = 0;
    exit_ = 3;
    blocks =
      [|
        blk 0 (Cfg.Cond { cond = Expr.Rank; on_true = 1; on_false = 2 });
        blk 1 (Cfg.Cond { cond = Expr.Rank; on_true = 2; on_false = 3 });
        blk 2 (Cfg.Jump 1);
        blk 3 Cfg.Ret;
      |];
  }

let test_irreducible_loops () =
  let cfg = irreducible_cfg () in
  let dom = Dominance.compute cfg in
  check_bool "entry dominates all" true
    (List.for_all
       (Dominance.dominates dom cfg.Cfg.entry)
       (Cfg.reverse_postorder cfg));
  check_bool "a does not dominate b" false (Dominance.dominates dom 1 2);
  check_bool "b does not dominate a" false (Dominance.dominates dom 2 1);
  (* the two-entry cycle must not be reported as a natural loop *)
  let loops = Loops.compute cfg in
  check_int "no natural loops" 0 (Loops.count loops);
  check_int "max depth" 0 (Loops.max_depth loops);
  (* and the dataflow solver still terminates on the irreducible cycle *)
  let r = BoolSolver.solve ~entry_fact:true ~transfer:(fun _ f -> f) cfg in
  Array.iteri
    (fun id reached ->
      check_bool (Printf.sprintf "block %d reached" id) true reached)
    r.BoolSolver.output;
  check_bool "terminates in bounded pops" true
    (r.BoolSolver.iterations <= 4 * Cfg.n_blocks cfg)

let test_defuse_primitives () =
  let isend =
    Ast.Isend { dest = Expr.Int 0; tag = Expr.Int 0; bytes = Expr.Int 8; req = "r" }
  in
  check_bool "isend defs its request" true
    (Defuse.mpi_defs isend = [ Defuse.Req "r" ]);
  check_bool "isend uses no request" true
    (List.for_all
       (function Defuse.Req _ -> false | Defuse.Var _ -> true)
       (Defuse.mpi_uses isend));
  check_bool "wait uses its request" true
    (Defuse.mpi_uses (Ast.Wait { req = "r" }) = [ Defuse.Req "r" ]);
  check_bool "waitall uses all requests" true
    (Defuse.mpi_uses (Ast.Waitall { reqs = [ "a"; "b" ] })
    = [ Defuse.Req "a"; Defuse.Req "b" ])

(* let n = 4; loop j < n { comp(j) }; isend r0; wait r0; isend r1 *)
let chains_fixture () =
  let open Expr.Infix in
  let b = Builder.create ~file:"ch.mmp" ~name:"ch" () in
  Builder.func b "main" (fun () ->
      [
        Builder.let_ b "n" (i 4);
        Builder.loop b ~var:"j" ~count:(v "n") (fun () ->
            [ Builder.comp b ~flops:(v "j") ~mem:(i 1) () ]);
        Builder.isend b ~dest:(i 0) ~bytes:(i 8) ~req:"r0" ();
        Builder.wait b ~req:"r0";
        Builder.isend b ~dest:(i 0) ~bytes:(i 8) ~req:"r1" ();
      ]);
  Ast.find_func (Builder.program b) "main"

let test_reaching_chains () =
  let f = chains_fixture () in
  match f.Ast.fbody with
  | [ slet; sloop; sisend; swait; sisend2 ] ->
      let scomp =
        match sloop.Ast.node with
        | Ast.Loop l -> List.hd l.body
        | _ -> Alcotest.fail "expected loop"
      in
      let ch = Defuse.Chains.of_func f in
      check_int "defs: n, j, r0, r1" 4 (Defuse.Chains.n_defs ch);
      check_int "uses: count, flops, wait" 3 (Defuse.Chains.n_uses ch);
      check_bool "loop count use reaches the let" true
        (Defuse.Chains.defs_reaching ch ~loc:sloop.Ast.loc (Defuse.Var "n")
        = [ slet.Ast.loc ]);
      check_bool "comp use of j reaches the loop header" true
        (Defuse.Chains.defs_reaching ch ~loc:scomp.Ast.loc (Defuse.Var "j")
        = [ sloop.Ast.loc ]);
      check_bool "wait reaches its isend" true
        (Defuse.Chains.defs_reaching ch ~loc:swait.Ast.loc (Defuse.Req "r0")
        = [ sisend.Ast.loc ]);
      check_bool "r1 never waited" true
        (Defuse.Chains.unused_defs ch
        = [ (Defuse.Req "r1", sisend2.Ast.loc) ])
  | _ -> Alcotest.fail "unexpected fixture shape"

(* --- call graph --- *)

let test_callgraph_edges () =
  let prog = Testutil.recursion_program () in
  let cg = Callgraph.build prog in
  let main_callees =
    Callgraph.callees cg "main"
    |> List.map (fun (e : Callgraph.edge) -> e.callee)
  in
  Alcotest.(check (slist string compare))
    "main callees" [ "alpha"; "beta"; "walk" ] main_callees;
  let kinds =
    Callgraph.callees cg "main"
    |> List.filter (fun (e : Callgraph.edge) -> e.kind = Callgraph.Indirect)
    |> List.map (fun (e : Callgraph.edge) -> e.callee)
  in
  Alcotest.(check (slist string compare)) "indirect" [ "alpha"; "beta" ] kinds

let test_recursion_detection () =
  let prog = Testutil.recursion_program () in
  let cg = Callgraph.build prog in
  check_bool "walk recursive" true (Callgraph.is_recursive cg "walk");
  check_bool "main not recursive" false (Callgraph.is_recursive cg "main");
  check_bool "alpha not recursive" false (Callgraph.is_recursive cg "alpha")

let test_mutual_recursion () =
  let prog =
    let open Expr.Infix in
    let b = Builder.create ~file:"m.mmp" ~name:"m" () in
  Builder.func b "ping" (fun () -> [ Builder.call b "pong" ]);
  Builder.func b "pong" (fun () -> [ Builder.call b "ping" ]);
  Builder.func b "main" (fun () ->
      [ Builder.call b "ping"; Builder.comp b ~flops:(i 1) ~mem:(i 1) () ]);
    Builder.program b
  in
  let cg = Callgraph.build prog in
  check_bool "ping recursive" true (Callgraph.is_recursive cg "ping");
  check_bool "pong recursive" true (Callgraph.is_recursive cg "pong");
  check_bool "same scc" true (Callgraph.in_same_scc cg "ping" "pong");
  check_bool "main not in scc" false (Callgraph.in_same_scc cg "main" "ping")

let test_reachable_and_topo () =
  let prog =
    let open Expr.Infix in
    let b = Builder.create ~file:"r.mmp" ~name:"r" () in
  Builder.func b "used" (fun () ->
      [ Builder.comp b ~flops:(i 1) ~mem:(i 1) () ]);
  Builder.func b "dead" (fun () ->
      [ Builder.comp b ~flops:(i 1) ~mem:(i 1) () ]);
  Builder.func b "main" (fun () -> [ Builder.call b "used" ]);
    Builder.program b
  in
  let cg = Callgraph.build prog in
  Alcotest.(check (slist string compare))
    "reachable" [ "main"; "used" ] (Callgraph.reachable cg);
  let order = Callgraph.topo_order cg in
  let pos x =
    let rec go i = function
      | [] -> -1
      | y :: rest -> if String.equal x y then i else go (i + 1) rest
    in
    go 0 order
  in
  check_bool "used before main" true (pos "used" < pos "main")

let test_callgraph_scc_count () =
  let prog = Testutil.recursion_program () in
  let cg = Callgraph.build prog in
  check_int "sccs" 4 (Callgraph.scc_count cg)

let () =
  Alcotest.run "cfg"
    [
      ( "lowering",
        [
          Alcotest.test_case "straight line" `Quick test_straightline;
          Alcotest.test_case "loop shape" `Quick test_loop_shape;
          Alcotest.test_case "branch diamond" `Quick test_branch_diamond;
          Alcotest.test_case "rpo starts at entry" `Quick
            test_rpo_starts_at_entry;
        ] );
      ( "dominance",
        [
          Alcotest.test_case "properties on fig3" `Quick
            test_dominance_properties;
        ] );
      ( "loops",
        [
          Alcotest.test_case "fig3 loop depths" `Quick test_loop_depths;
          Alcotest.test_case "natural loops match AST (all apps)" `Quick
            test_natural_loops_match_ast;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "solver reachability" `Quick
            test_solver_reachability;
          Alcotest.test_case "solver fixpoint" `Quick test_solver_fixpoint;
          Alcotest.test_case "irreducible cycle" `Quick test_irreducible_loops;
          Alcotest.test_case "def/use primitives" `Quick test_defuse_primitives;
          Alcotest.test_case "reaching chains" `Quick test_reaching_chains;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "edges" `Quick test_callgraph_edges;
          Alcotest.test_case "self recursion" `Quick test_recursion_detection;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
          Alcotest.test_case "reachable and topo" `Quick
            test_reachable_and_topo;
          Alcotest.test_case "scc count" `Quick test_callgraph_scc_count;
        ] );
    ]
