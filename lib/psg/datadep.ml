(* Data-dependence annotation of the contracted PSG.

   The paper's PSG approximates data dependence by sibling order; this
   pass makes it explicit.  Per-function def-use chains (from the
   reaching-definitions analysis in {!Scalana_cfg.Defuse}) are mapped
   onto PSG vertices: a chain [def site -> use site] becomes an edge
   between the vertices owning those statements in the same inlining
   instance (vertices of one expansion share a callpath).  [Let]
   statements and function parameters produce no PSG vertex, so chains
   ending at one are followed transitively through the binding's own
   uses — [let t = k; send(dest = t)] still yields an edge from the send
   to the definition of [k].

   Both endpoints are projected through the contraction map before the
   edge is recorded, so the annotation lives on the graph the detector
   traverses ({!Scalana_detect.Backtrack} with [follow_def_use]). *)

open Scalana_mlang
open Scalana_cfg

type summary = { defs : int; uses : int; edges : int }

(* Resolve a definition site to PSG vertices within one inlining
   instance.  A site with no vertex of its own (a [Let], a parameter
   binding at the function location) is chained through its own uses'
   reaching definitions; [visited] guards against loop-carried cycles
   through the same binding. *)
let rec def_vertices lookup chains visited def_loc =
  if List.exists (Loc.equal def_loc) visited then []
  else
    match lookup def_loc with
    | Some did -> [ did ]
    | None ->
        Defuse.Chains.uses_at chains def_loc
        |> List.concat_map (fun (_, sites) ->
               List.concat_map
                 (def_vertices lookup chains (def_loc :: visited))
                 sites)

let annotate ?pool ~(full : Psg.t) ~(contraction : Contract.result)
    (program : Ast.program) =
  let chains_list =
    Scalana_pool.Pool.parallel_map ?pool
      (fun (f : Ast.func) -> (f.fname, Defuse.Chains.of_func f))
      program.funcs
  in
  let chains_tbl = Hashtbl.create (max 16 (List.length chains_list)) in
  List.iter (fun (n, c) -> Hashtbl.replace chains_tbl n c) chains_list;
  (* (callpath, loc) -> full-PSG vertex, keyed as the attribution index
     keys it; first expansion wins, matching its recursion folding. *)
  let vert_at = Hashtbl.create (max 64 (Psg.n_vertices full)) in
  Psg.iter
    (fun v ->
      let k = Index.key v.Vertex.callpath v.Vertex.loc in
      if not (Hashtbl.mem vert_at k) then Hashtbl.add vert_at k v.Vertex.id)
    full;
  let contracted = contraction.Contract.psg in
  Psg.iter
    (fun v ->
      match Hashtbl.find_opt chains_tbl v.Vertex.func with
      | None -> ()
      | Some chains ->
          let lookup loc =
            Hashtbl.find_opt vert_at (Index.key v.Vertex.callpath loc)
          in
          Defuse.Chains.uses_at chains v.Vertex.loc
          |> List.iter (fun (_, sites) ->
                 List.iter
                   (fun site ->
                     List.iter
                       (fun did ->
                         match
                           ( Contract.new_id contraction v.Vertex.id,
                             Contract.new_id contraction did )
                         with
                         | Some u, Some d ->
                             Psg.add_data_dep contracted ~use:u ~def:d
                         | _ -> ())
                       (def_vertices lookup chains [] site))
                   sites))
    full;
  let defs, uses =
    List.fold_left
      (fun (d, u) (_, c) ->
        (d + Defuse.Chains.n_defs c, u + Defuse.Chains.n_uses c))
      (0, 0) chains_list
  in
  { defs; uses; edges = Psg.n_data_dep_edges contracted }
