(* ScalAna-static: the compile-time step.

   Runs the front end (validation, CFG construction, dominance and
   natural-loop analyses — the stand-in for the base compiler work) and
   the ScalAna passes (intra- and inter-procedural PSG construction,
   contraction, attribution-index build), and measures the extra cost of
   the latter relative to the former (Table III). *)

open Scalana_mlang
open Scalana_cfg
open Scalana_psg

type t = {
  program : Ast.program;
  locals : (string, Psg.t) Hashtbl.t;
  full : Psg.t;
  contraction : Contract.result;
  mutable index : Index.t;
  datadep : Datadep.summary;
  commcost : Commcost.t;
  stats : Stats.t;
}

let psg t = t.contraction.Contract.psg

(* Attach the symbolic scaling predictions of the communication-cost
   analysis to the contracted PSG: MPI vertices get their per-statement
   fact (class, symbolic message count, bytes, destination, pattern),
   structural vertices their symbolic execution count's class. *)
let annotate_predictions (cc : Commcost.t) (psg : Psg.t) =
  Psg.iter
    (fun (v : Vertex.t) ->
      match v.Vertex.kind with
      | Vertex.Root _ -> ()
      | Vertex.Mpi _ -> (
          match Commcost.find_fact cc ~func:v.Vertex.func ~loc:v.Vertex.loc with
          | Some fact ->
              Psg.set_static_pred psg v.Vertex.id (Commcost.pred_of_fact cc fact)
          | None -> (
              match Commcost.count_at cc ~func:v.Vertex.func ~loc:v.Vertex.loc with
              | Some count ->
                  Psg.set_static_pred psg v.Vertex.id (Commcost.count_pred count)
              | None -> ()))
      | Vertex.Loop _ | Vertex.Branch | Vertex.Comp _ | Vertex.Callsite _ -> (
          match Commcost.count_at cc ~func:v.Vertex.func ~loc:v.Vertex.loc with
          | Some count ->
              Psg.set_static_pred psg v.Vertex.id (Commcost.count_pred count)
          | None -> ()))
    psg

let analyze ?(max_loop_depth = Contract.default_max_loop_depth) ?pool
    (program : Ast.program) =
  if max_loop_depth < 0 then
    Fmt.invalid_arg "Static.analyze: max_loop_depth %d: must be >= 0"
      max_loop_depth;
  (match Validate.run program with
  | Ok () -> ()
  | Error errs ->
      invalid_arg
        ("Static.analyze: invalid program:\n"
        ^ String.concat "\n" (List.map Validate.error_to_string errs)));
  let locals = Intra.build_all ?pool program in
  let full = Inter.build ~locals program in
  let contraction = Contract.run ~max_loop_depth full in
  let index = Index.build ~full ~contraction in
  let datadep = Datadep.annotate ?pool ~full ~contraction program in
  let commcost = Commcost.analyze program in
  annotate_predictions commcost contraction.Contract.psg;
  let stats =
    Stats.of_psgs ~defs:datadep.Datadep.defs ~uses:datadep.Datadep.uses
      ~dd_edges:datadep.Datadep.edges
      ~preds:(Psg.n_static_preds contraction.Contract.psg)
      ~program:program.pname ~lines:(Ast.line_count program) ~full
      ~contracted:contraction.Contract.psg ()
  in
  { program; locals; full; contraction; index; datadep; commcost; stats }

(* The base "compilation": parse + validate + per-function middle-end
   analyses.  A production compiler runs a long pass pipeline over the
   IR; we model that by iterating the CFG/dominance/loop analyses
   [passes] times (an LLVM -O2 pipeline runs on the order of 10^2
   middle-end passes). *)
let base_compile ?(passes = 150) (program : Ast.program) =
  let source = Pretty.render program in
  let reparsed = Parser.parse ~file:program.file source in
  (match Validate.run reparsed with Ok () -> () | Error _ -> ());
  List.iter
    (fun (f : Ast.func) ->
      let cfg = Cfg.of_func f in
      for _ = 1 to passes do
        let dom = Dominance.compute cfg in
        let loops = Loops.compute cfg in
        ignore (Dominance.dominator_tree dom);
        ignore (Loops.max_depth loops)
      done)
    reparsed.funcs;
  ignore (Callgraph.build reparsed)

let time_of f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* [f]'s wall time as a percentage of one base compilation: the median
   over 5 rounds that each time a base compile and [f] back to back, so
   a slow spell on the host hits both alike. *)
let overhead_pct (program : Ast.program) f =
  Scalana_detect.Aggregate.median
    (Array.init 5 (fun _ ->
         let base = time_of (fun () -> base_compile program) in
         let extra = time_of f in
         if base <= 0.0 then 0.0 else 100.0 *. extra /. base))

(* Static overhead: the ScalAna passes as a percentage of base
   compilation (Table III's Ovd%). *)
let static_overhead (program : Ast.program) =
  overhead_pct program (fun () -> ignore (analyze program))
