(* Program call graph (PCG) for MiniMPI programs.

   Nodes are function names; edges record direct calls and the statically
   visible candidate sets of indirect calls.  Recursion is detected via
   Tarjan SCCs; the inter-procedural PSG pass uses [topo_order] (on the
   SCC condensation) and [is_recursive] to decide which calls to inline
   and which to turn into cycles, exactly as Section III-A prescribes. *)

open Scalana_mlang

type edge_kind = Direct | Indirect

type edge = {
  caller : string;
  callee : string;
  kind : edge_kind;
  site : Loc.t;
}

type t = {
  program : Ast.program;
  names : string list;
  edges : edge list;
  sccs : string list list;  (* Tarjan SCCs in reverse topological order *)
  scc_of : (string, int) Hashtbl.t;
}

let collect_edges (program : Ast.program) =
  let edges = ref [] in
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_stmts
        (fun s ->
          match s.node with
          | Ast.Call { callee; _ } ->
              edges :=
                { caller = f.fname; callee; kind = Direct; site = s.loc }
                :: !edges
          | Ast.Icall { targets; _ } ->
              List.iter
                (fun callee ->
                  edges :=
                    { caller = f.fname; callee; kind = Indirect; site = s.loc }
                    :: !edges)
                targets
          | Ast.Comp _ | Ast.Loop _ | Ast.Branch _ | Ast.Mpi _ | Ast.Let _ ->
              ())
        f.fbody)
    program.funcs;
  List.rev !edges

(* Tarjan's strongly connected components. *)
let tarjan names succ =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succ v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if String.equal w v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) names;
  (* Tarjan emits SCCs in reverse topological order of the condensation. *)
  List.rev !sccs

let build (program : Ast.program) =
  let names = List.map (fun (f : Ast.func) -> f.fname) program.funcs in
  let edges = collect_edges program in
  let succ v =
    List.filter_map
      (fun e -> if String.equal e.caller v then Some e.callee else None)
      edges
    |> List.sort_uniq String.compare
  in
  let sccs = tarjan names succ in
  let scc_of = Hashtbl.create 16 in
  List.iteri
    (fun i members -> List.iter (fun m -> Hashtbl.replace scc_of m i) members)
    sccs;
  { program; names; edges; sccs; scc_of }

let callees t name =
  List.filter (fun e -> String.equal e.caller name) t.edges

let callers t name =
  List.filter (fun e -> String.equal e.callee name) t.edges

(* A function is recursive when its SCC has >1 member or it calls itself. *)
let is_recursive t name =
  match Hashtbl.find_opt t.scc_of name with
  | None -> false
  | Some i ->
      (match List.nth_opt t.sccs i with
      | Some [ _ ] ->
          List.exists
            (fun e -> String.equal e.caller name && String.equal e.callee name)
            t.edges
      | Some _ -> true
      | None -> false)

let in_same_scc t a b =
  match (Hashtbl.find_opt t.scc_of a, Hashtbl.find_opt t.scc_of b) with
  | Some i, Some j -> i = j
  | _ -> false

(* Functions reachable from main (direct and indirect edges). *)
let reachable t =
  let visited = Hashtbl.create 16 in
  let rec go v =
    if not (Hashtbl.mem visited v) then begin
      Hashtbl.replace visited v ();
      List.iter (fun e -> go e.callee) (callees t v)
    end
  in
  go t.program.main;
  List.filter (Hashtbl.mem visited) t.names

(* Callee-first order (reverse topological order of the condensation),
   flattened; members of one SCC stay adjacent. *)
let topo_order t = List.concat t.sccs

let scc_count t = List.length t.sccs
