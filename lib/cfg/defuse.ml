(* Definitions and uses of MiniMPI names, and the dataflow instance
   built on them.

   Two namespaces matter to the static analyses: scalar bindings (loop
   variables, [let] bindings, function parameters — all referenced as
   [Expr.Var]) and MPI request handles ([Isend]/[Irecv] define a handle,
   [Wait]/[Waitall] use it).  Program parameters ([Expr.Param]) are
   compile-time constants and carry no dataflow.

   On top of the per-statement extraction this module instantiates
   {!Dataflow} with reaching definitions and distills the solution into
   per-function def-use chains, the substrate of the PSG data-dependence
   edges ({!Scalana_psg.Datadep}) and of the never-waited-request
   lint. *)

open Scalana_mlang

type sym = Var of string | Req of string

let compare_sym (a : sym) (b : sym) = compare a b

let expr_uses e = List.map (fun v -> Var v) (Expr.free_vars e)

let peer_uses = function Ast.Any_source -> [] | Ast.Peer e -> expr_uses e
let tag_uses = function Ast.Any_tag -> [] | Ast.Tag e -> expr_uses e

let mpi_uses = function
  | Ast.Send { dest; tag; bytes } ->
      expr_uses dest @ expr_uses tag @ expr_uses bytes
  | Ast.Recv { src; tag; bytes } ->
      peer_uses src @ tag_uses tag @ expr_uses bytes
  | Ast.Isend { dest; tag; bytes; req = _ } ->
      expr_uses dest @ expr_uses tag @ expr_uses bytes
  | Ast.Irecv { src; tag; bytes; req = _ } ->
      peer_uses src @ tag_uses tag @ expr_uses bytes
  | Ast.Wait { req } -> [ Req req ]
  | Ast.Waitall { reqs } -> List.map (fun r -> Req r) reqs
  | Ast.Sendrecv { dest; stag; sbytes; src; rtag; rbytes } ->
      expr_uses dest @ expr_uses stag @ expr_uses sbytes @ peer_uses src
      @ tag_uses rtag @ expr_uses rbytes
  | Ast.Barrier -> []
  | Ast.Bcast { root; bytes } | Ast.Reduce { root; bytes } ->
      expr_uses root @ expr_uses bytes
  | Ast.Allreduce { bytes } | Ast.Alltoall { bytes } | Ast.Allgather { bytes }
    ->
      expr_uses bytes

let mpi_defs = function
  | Ast.Isend { req; _ } | Ast.Irecv { req; _ } -> [ Req req ]
  | Ast.Send _ | Ast.Recv _ | Ast.Wait _ | Ast.Waitall _ | Ast.Sendrecv _
  | Ast.Barrier | Ast.Bcast _ | Ast.Reduce _ | Ast.Allreduce _
  | Ast.Alltoall _ | Ast.Allgather _ ->
      []

(* Statement-level view, as the AST walkers (linter) consume it: a Loop
   defines its induction variable and uses its trip count; a Branch uses
   its condition. *)
let stmt_uses (s : Ast.stmt) =
  match s.node with
  | Ast.Comp w -> expr_uses w.flops @ expr_uses w.mem @ expr_uses w.ints
  | Ast.Loop l -> expr_uses l.count
  | Ast.Branch b -> expr_uses b.cond
  | Ast.Call { args; _ } -> List.concat_map (fun (_, e) -> expr_uses e) args
  | Ast.Icall { selector; _ } -> expr_uses selector
  | Ast.Mpi c -> mpi_uses c
  | Ast.Let { value; _ } -> expr_uses value

let stmt_defs (s : Ast.stmt) =
  match s.node with
  | Ast.Let { var; _ } -> [ Var var ]
  | Ast.Loop l -> [ Var l.var ]
  | Ast.Mpi c -> mpi_defs c
  | Ast.Comp _ | Ast.Branch _ | Ast.Call _ | Ast.Icall _ -> []

(* --- block-level events --- *)

(* One def/use event per statement, in block execution order; a block's
   terminator condition (loop trip count, branch condition) contributes a
   trailing event anchored at the originating statement's location.  The
   loop-variable definition lives in the header event, after the
   trip-count uses, so it flows into the body but not into the count. *)
type event = { eloc : Loc.t; euses : sym list; edefs : sym list }

let dedup syms =
  List.fold_left
    (fun acc s -> if List.mem s acc then acc else s :: acc)
    [] syms
  |> List.rev

let block_events (cfg : Cfg.t) id =
  let b = Cfg.block cfg id in
  let of_stmt (s : Ast.stmt) =
    { eloc = s.loc; euses = dedup (stmt_uses s); edefs = dedup (stmt_defs s) }
  in
  let base = List.map of_stmt b.Cfg.stmts in
  match (b.Cfg.term, b.Cfg.origin) with
  | Cfg.Cond _, Cfg.Loop_header s ->
      base @ [ of_stmt s ]  (* count uses, then the loop-var def *)
  | Cfg.Cond _, Cfg.Branch_cond s -> base @ [ of_stmt s ]
  | (Cfg.Jump _ | Cfg.Ret | Cfg.Cond _), _ -> base

(* --- reaching definitions --- *)

module Def = struct
  type t = sym * Loc.t

  let compare (s1, l1) (s2, l2) =
    match compare_sym s1 s2 with 0 -> Loc.compare l1 l2 | c -> c
end

module DefSet = Set.Make (Def)

module Reaching = struct
  module S = Dataflow.Solver (struct
    type t = DefSet.t

    let bottom = DefSet.empty
    let equal = DefSet.equal
    let join = DefSet.union
  end)

  let kill_gen facts { eloc; edefs; _ } =
    List.fold_left
      (fun acc d ->
        DefSet.add (d, eloc)
          (DefSet.filter (fun (s, _) -> compare_sym s d <> 0) acc))
      facts edefs

  (* Definitions reaching each block entry.  Function parameters are
     defined at the function's own location. *)
  let compute (f : Ast.func) (cfg : Cfg.t) =
    let entry_fact =
      List.fold_left
        (fun acc p -> DefSet.add (Var p, f.floc) acc)
        DefSet.empty f.fparams
    in
    S.solve ~entry_fact
      ~transfer:(fun id facts ->
        List.fold_left kill_gen facts (block_events cfg id))
      cfg
end

(* --- def-use chains --- *)

module Chains = struct
  type t = {
    func : string;
    uses : (Loc.t, (sym * Loc.t list) list) Hashtbl.t;
        (* statement location -> used syms with their reaching def sites *)
    defs : (sym * Loc.t) list;  (* every def site, source order *)
    n_uses : int;
  }

  let of_func (f : Ast.func) =
    let cfg = Cfg.of_func f in
    let reaching = Reaching.compute f cfg in
    let uses = Hashtbl.create 64 in
    let defs = ref [] in
    let n_uses = ref 0 in
    Array.iter
      (fun (b : Cfg.block) ->
        let facts = ref reaching.Reaching.S.input.(b.Cfg.id) in
        List.iter
          (fun ev ->
            let at_loc =
              List.map
                (fun s ->
                  incr n_uses;
                  let sites =
                    DefSet.fold
                      (fun (ds, dl) acc ->
                        if compare_sym ds s = 0 then dl :: acc else acc)
                      !facts []
                    |> List.sort Loc.compare
                  in
                  (s, sites))
                ev.euses
            in
            if at_loc <> [] then begin
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt uses ev.eloc)
              in
              Hashtbl.replace uses ev.eloc (prev @ at_loc)
            end;
            List.iter (fun d -> defs := (d, ev.eloc) :: !defs) ev.edefs;
            facts := Reaching.kill_gen !facts ev)
          (block_events cfg b.Cfg.id))
      cfg.Cfg.blocks;
    let param_defs = List.map (fun p -> (Var p, f.floc)) f.fparams in
    {
      func = f.fname;
      uses;
      defs = param_defs @ List.rev !defs;
      n_uses = !n_uses;
    }

  let uses_at t loc = Option.value ~default:[] (Hashtbl.find_opt t.uses loc)

  let defs_reaching t ~loc sym =
    List.concat_map
      (fun (s, sites) -> if compare_sym s sym = 0 then sites else [])
      (uses_at t loc)

  let n_defs t = List.length t.defs
  let n_uses t = t.n_uses

  (* Def sites never reached by any use of their symbol — for request
     handles, an [Isend]/[Irecv] that is never waited on. *)
  let unused_defs t =
    let used = Hashtbl.create 64 in
    Hashtbl.iter
      (fun _ at_loc ->
        List.iter
          (fun (s, sites) ->
            List.iter (fun site -> Hashtbl.replace used (s, site) ()) sites)
          at_loc)
      t.uses;
    List.filter (fun d -> not (Hashtbl.mem used d)) t.defs
end
