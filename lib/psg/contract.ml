(* PSG contraction (Section III-A).

   Rules, in the paper's order of priority:
   - every MPI vertex and every control structure containing one is kept;
   - structures without MPI keep only loops (loop iterations may dominate
     compute time), bounded by [max_loop_depth] nesting; branches without
     MPI collapse into Comp vertices;
   - consecutive Comp siblings merge into one larger Comp.

   The result maps every original vertex to the contracted vertex that
   absorbed it, which is what runtime attribution uses. *)

type result = {
  psg : Psg.t;
  orig_to_new : (int, int) Hashtbl.t;
}

let default_max_loop_depth = 10

(* Add a Comp under [parent], merging with the previous sibling when that
   sibling is also a Comp. Returns the vertex id the original maps to. *)
let add_comp dst ~parent ~loc ~func ~callpath ~label ~merged =
  match Psg.last_child dst parent with
  | Some prev_id -> (
      let prev = Psg.vertex dst prev_id in
      match prev.Vertex.kind with
      | Vertex.Comp { label = prev_label; merged = prev_merged } ->
          let label = match prev_label with Some _ -> prev_label | None -> label in
          Psg.set_kind dst prev_id
            (Vertex.Comp { label; merged = prev_merged + merged });
          prev_id
      | _ ->
          Psg.add_vertex dst ~parent ~kind:(Vertex.Comp { label; merged })
            ~loc ~func ~callpath)
  | None ->
      Psg.add_vertex dst ~parent ~kind:(Vertex.Comp { label; merged })
        ~loc ~func ~callpath

let run ?(max_loop_depth = default_max_loop_depth) (src : Psg.t) =
  let dst = Psg.create () in
  let orig_to_new = Hashtbl.create 256 in
  let map_subtree orig_id new_id =
    List.iter
      (fun o -> Hashtbl.replace orig_to_new o new_id)
      (Psg.subtree_vertices src orig_id)
  in
  let rec walk ~dst_parent ~depth orig_id =
    let v = Psg.vertex src orig_id in
    let copy kind =
      let id =
        Psg.add_vertex dst ~parent:dst_parent ~kind ~loc:v.loc ~func:v.func
          ~callpath:v.callpath
      in
      Hashtbl.replace orig_to_new orig_id id;
      id
    in
    let collapse ~label =
      let merged = List.length (Psg.subtree_vertices src orig_id) in
      let id =
        add_comp dst ~parent:dst_parent ~loc:v.loc ~func:v.func
          ~callpath:v.callpath ~label ~merged
      in
      map_subtree orig_id id
    in
    match v.Vertex.kind with
    | Vertex.Root _ -> invalid_arg "Contract: nested Root"
    | Vertex.Mpi _ -> ignore (copy v.kind)
    | Vertex.Callsite _ ->
        let id = copy v.kind in
        List.iter (walk ~dst_parent:id ~depth) (Psg.children src orig_id)
    | Vertex.Comp { label; merged } ->
        let id =
          add_comp dst ~parent:dst_parent ~loc:v.loc ~func:v.func
            ~callpath:v.callpath ~label ~merged
        in
        Hashtbl.replace orig_to_new orig_id id
    | Vertex.Branch ->
        if Psg.subtree_has_mpi src orig_id then begin
          let id = copy v.kind in
          List.iter (walk ~dst_parent:id ~depth) (Psg.children src orig_id)
        end
        else begin
          (* MPI-free branch: the structure is dropped but loops inside
             are preserved ("we only preserve Loop") — hoist children *)
          Hashtbl.replace orig_to_new orig_id dst_parent;
          List.iter (walk ~dst_parent ~depth) (Psg.children src orig_id)
        end
    | Vertex.Loop { var; label; depth = _ } ->
        if Psg.subtree_has_mpi src orig_id || depth + 1 <= max_loop_depth
        then begin
          let id = copy (Vertex.Loop { var; label; depth = depth + 1 }) in
          List.iter
            (walk ~dst_parent:id ~depth:(depth + 1))
            (Psg.children src orig_id)
        end
        else collapse ~label
  in
  let src_root = Psg.root src in
  let root_v = Psg.vertex src src_root in
  let new_root =
    Psg.add_root dst
      ~func:(match root_v.Vertex.kind with Vertex.Root f -> f | _ -> root_v.func)
      ~loc:root_v.loc
  in
  Hashtbl.replace orig_to_new src_root new_root;
  List.iter (walk ~dst_parent:new_root ~depth:0) (Psg.children src src_root);
  (* carry cycle edges over when both endpoints survived *)
  Psg.iter
    (fun v ->
      match Psg.cycle_target src v.Vertex.id with
      | Some entry -> (
          match
            ( Hashtbl.find_opt orig_to_new v.Vertex.id,
              Hashtbl.find_opt orig_to_new entry )
          with
          | Some c, Some e -> Psg.add_cycle_edge dst ~callsite:c ~entry:e
          | _ -> ())
      | None -> ())
    src;
  { psg = dst; orig_to_new }

let new_id result orig = Hashtbl.find_opt result.orig_to_new orig
