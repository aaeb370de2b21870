(* Natural-loop detection from back edges.

   An edge latch -> header is a back edge when the header dominates the
   latch; the loop body is every block that reaches the latch without
   passing through the header.  Nesting depth is recovered by counting
   enclosing headers — this mirrors how a compiler identifies the loops
   that ScalAna turns into PSG Loop vertices. *)

type loop = {
  header : Cfg.node_id;
  latch : Cfg.node_id;
  body : Cfg.node_id list;  (* includes header and latch *)
  depth : int;  (* 1 = outermost *)
}

type t = { loops : loop list }

let back_edges cfg dom =
  let edges = ref [] in
  Array.iter
    (fun (blk : Cfg.block) ->
      List.iter
        (fun succ ->
          if Dominance.dominates dom succ blk.id then
            edges := (blk.id, succ) :: !edges)
        (Cfg.successors cfg blk.id))
    cfg.Cfg.blocks;
  List.rev !edges

let natural_loop cfg ~header ~latch =
  let preds = Cfg.predecessors cfg in
  let in_loop = Hashtbl.create 16 in
  Hashtbl.replace in_loop header ();
  let rec walk id =
    if not (Hashtbl.mem in_loop id) then begin
      Hashtbl.replace in_loop id ();
      List.iter walk preds.(id)
    end
  in
  walk latch;
  Hashtbl.fold (fun id () acc -> id :: acc) in_loop [] |> List.sort compare

let compute cfg =
  let dom = Dominance.compute cfg in
  let raw =
    List.map
      (fun (latch, header) ->
        { header; latch; body = natural_loop cfg ~header ~latch; depth = 0 })
      (back_edges cfg dom)
  in
  (* depth = number of loops whose body strictly contains this header,
     plus one. *)
  let depth_of l =
    1
    + List.length
        (List.filter
           (fun other ->
             other.header <> l.header && List.mem l.header other.body)
           raw)
  in
  { loops = List.map (fun l -> { l with depth = depth_of l }) raw }

let loops t = t.loops
let count t = List.length t.loops

let max_depth t =
  List.fold_left (fun acc l -> max acc l.depth) 0 t.loops
