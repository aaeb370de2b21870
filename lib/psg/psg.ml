(* Program Structure Graph.

   The PSG is an ordered tree plus derived edges: the parent link is the
   control-dependence edge of a vertex, and the left-to-right order of a
   body encodes execution order (the paper's data-dependence edges between
   consecutive components).  Recursive calls add back edges, making the
   structure a general graph as in Section III-A. *)



type t = {
  verts : (int, Vertex.t) Hashtbl.t;
  children : (int, int list) Hashtbl.t;  (* stored reversed during build *)
  parent : (int, int) Hashtbl.t;
  cycle : (int, int) Hashtbl.t;  (* recursive callsite -> entry vertex *)
  datadep : (int, int list) Hashtbl.t;
      (* use vertex -> defining vertices, stored reversed *)
  static_pred : (int, Scalana_cfg.Commcost.pred) Hashtbl.t;
      (* vertex -> symbolic scaling prediction (plain data: the PSG is
         marshalled into session artifacts) *)
  mutable n_datadep : int;
  mutable next_id : int;
  mutable root : int;
}

let create () =
  {
    verts = Hashtbl.create 64;
    children = Hashtbl.create 64;
    parent = Hashtbl.create 64;
    cycle = Hashtbl.create 4;
    datadep = Hashtbl.create 16;
    static_pred = Hashtbl.create 16;
    n_datadep = 0;
    next_id = 0;
    root = -1;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add_root t ~func ~loc =
  let id = fresh_id t in
  let v =
    { Vertex.id; kind = Vertex.Root func; loc; func; callpath = [] }
  in
  Hashtbl.replace t.verts id v;
  Hashtbl.replace t.children id [];
  if t.root < 0 then t.root <- id;
  id

let add_vertex t ~parent ~kind ~loc ~func ~callpath =
  let id = fresh_id t in
  let v = { Vertex.id; kind; loc; func; callpath } in
  Hashtbl.replace t.verts id v;
  Hashtbl.replace t.children id [];
  Hashtbl.replace t.parent id parent;
  let siblings = try Hashtbl.find t.children parent with Not_found -> [] in
  Hashtbl.replace t.children parent (id :: siblings);
  id

let set_kind t id kind =
  let v = Hashtbl.find t.verts id in
  Hashtbl.replace t.verts id { v with Vertex.kind }

let add_cycle_edge t ~callsite ~entry = Hashtbl.replace t.cycle callsite entry
let cycle_target t callsite = Hashtbl.find_opt t.cycle callsite

(* Explicit data-dependence edges from the def-use analysis (Datadep):
   vertex [use] reads a value defined at vertex [def]. *)
let add_data_dep t ~use ~def =
  if use <> def then begin
    let cur = Option.value ~default:[] (Hashtbl.find_opt t.datadep use) in
    if not (List.mem def cur) then begin
      Hashtbl.replace t.datadep use (def :: cur);
      t.n_datadep <- t.n_datadep + 1
    end
  end

let data_deps t use =
  match Hashtbl.find_opt t.datadep use with
  | Some l -> List.rev l
  | None -> []

(* Symbolic scaling predictions of the static communication-complexity
   analysis (Commcost), attached per contracted vertex. *)
let set_static_pred t id pred = Hashtbl.replace t.static_pred id pred
let static_pred t id = Hashtbl.find_opt t.static_pred id
let n_static_preds t = Hashtbl.length t.static_pred

let n_data_dep_edges t = t.n_datadep
let root t = t.root
let vertex t id = Hashtbl.find t.verts id
let vertex_opt t id = Hashtbl.find_opt t.verts id
let n_vertices t = Hashtbl.length t.verts
let children t id =
  match Hashtbl.find_opt t.children id with
  | Some l -> List.rev l
  | None -> []

let parent t id = Hashtbl.find_opt t.parent id

(* Previous sibling in execution order: the paper's backward
   data-dependence step. *)
let prev_sibling t id =
  match parent t id with
  | None -> None
  | Some p ->
      let rec find_prev prev = function
        | [] -> None
        | x :: rest -> if x = id then prev else find_prev (Some x) rest
      in
      find_prev None (children t p)

let next_sibling t id =
  match parent t id with
  | None -> None
  | Some p ->
      let rec find = function
        | x :: ((y :: _) as rest) ->
            if x = id then Some y else find rest
        | _ -> None
      in
      find (children t p)

let last_child t id =
  match Hashtbl.find_opt t.children id with
  | Some (last :: _) -> Some last
  | Some [] | None -> None

(* DFS pre-order = program execution order of one iteration. *)
let exec_order t =
  let acc = ref [] in
  let rec go id =
    acc := id :: !acc;
    List.iter go (children t id)
  in
  if t.root >= 0 then go t.root;
  List.rev !acc

let iter f t = List.iter (fun id -> f (vertex t id)) (exec_order t)

let fold f acc t =
  List.fold_left (fun acc id -> f acc (vertex t id)) acc (exec_order t)

let find_all p t =
  fold (fun acc v -> if p v then v :: acc else acc) [] t |> List.rev

(* Does any MPI vertex live in the subtree rooted at [id]?  Unresolved
   callsites count: they may execute MPI at runtime. *)
let rec subtree_has_mpi t id =
  let v = vertex t id in
  Vertex.is_mpi v || Vertex.is_callsite v
  || List.exists (subtree_has_mpi t) (children t id)

let subtree_vertices t id =
  let acc = ref [] in
  let rec go id =
    acc := id :: !acc;
    List.iter go (children t id)
  in
  go id;
  List.rev !acc

let ancestors t id =
  let rec climb acc id =
    match parent t id with None -> List.rev acc | Some p -> climb (p :: acc) p
  in
  climb [] id

let pp ppf t =
  let rec go indent id =
    let v = vertex t id in
    Fmt.pf ppf "%s%a@." (String.make (2 * indent) ' ') Vertex.pp v;
    List.iter (go (indent + 1)) (children t id)
  in
  if t.root >= 0 then go 0 t.root

(* Memory footprint model: the paper reports 32 bytes per PSG vertex. *)
let bytes_per_vertex = 32
let memory_bytes t = n_vertices t * bytes_per_vertex
