(* Control-flow graph lowering for MiniMPI functions.

   This is the IR-level substrate the paper's intra-procedural pass walks:
   structured statements are lowered to basic blocks with explicit
   terminators; loops produce the classic preheader / header / body /
   latch / exit shape with a back edge, branches produce diamonds.  Each
   block remembers the AST construct that generated it (provenance), and
   the dominance/natural-loop analyses recover the same structure from the
   raw graph — the test suite checks they agree. *)

open Scalana_mlang

type node_id = int

type terminator =
  | Jump of node_id
  | Cond of { cond : Expr.t; on_true : node_id; on_false : node_id }
  | Ret

type origin =
  | Plain
  | Loop_header of Ast.stmt
  | Loop_latch of Ast.stmt
  | Branch_cond of Ast.stmt

type block = {
  id : node_id;
  stmts : Ast.stmt list;  (* straight-line statements only *)
  term : terminator;
  origin : origin;
}

type t = {
  fname : string;
  entry : node_id;
  exit_ : node_id;
  blocks : block array;
}

(* --- construction --- *)

type builder = {
  mutable nodes : (Ast.stmt list ref * terminator option ref * origin) array;
  mutable len : int;
}

let new_block ?(origin = Plain) b =
  let cell = (ref [], ref None, origin) in
  if b.len = Array.length b.nodes then begin
    let bigger = Array.make (max 8 (2 * b.len)) cell in
    Array.blit b.nodes 0 bigger 0 b.len;
    b.nodes <- bigger
  end;
  b.nodes.(b.len) <- cell;
  b.len <- b.len + 1;
  b.len - 1

let add_stmt b id s =
  let stmts, _, _ = b.nodes.(id) in
  stmts := s :: !stmts

let set_term b id t =
  let _, term, _ = b.nodes.(id) in
  match !term with
  | Some _ -> invalid_arg "Cfg: terminator already set"
  | None -> term := Some t

(* Lower a statement list into the graph, starting in block [cur];
   returns the block control falls out into. *)
let rec lower_stmts b cur stmts =
  List.fold_left (lower_stmt b) cur stmts

and lower_stmt b cur (s : Ast.stmt) =
  match s.node with
  | Ast.Comp _ | Ast.Mpi _ | Ast.Call _ | Ast.Icall _ | Ast.Let _ ->
      add_stmt b cur s;
      cur
  | Ast.Loop l ->
      let header = new_block ~origin:(Loop_header s) b in
      let body = new_block b in
      let latch = new_block ~origin:(Loop_latch s) b in
      let exit_ = new_block b in
      set_term b cur (Jump header);
      set_term b header
        (Cond { cond = l.count; on_true = body; on_false = exit_ });
      let body_end = lower_stmts b body l.body in
      set_term b body_end (Jump latch);
      set_term b latch (Jump header);
      exit_
  | Ast.Branch br ->
      let cond_block = new_block ~origin:(Branch_cond s) b in
      set_term b cur (Jump cond_block);
      let then_start = new_block b in
      let else_start = new_block b in
      let join = new_block b in
      set_term b cond_block
        (Cond { cond = br.cond; on_true = then_start; on_false = else_start });
      let then_end = lower_stmts b then_start br.then_ in
      set_term b then_end (Jump join);
      let else_end = lower_stmts b else_start br.else_ in
      set_term b else_end (Jump join);
      join

let of_func (f : Ast.func) =
  let b = { nodes = [||]; len = 0 } in
  let entry = new_block b in
  let last = lower_stmts b entry f.fbody in
  set_term b last Ret;
  let blocks =
    Array.init b.len (fun id ->
        let stmts, term, origin = b.nodes.(id) in
        let term =
          match !term with
          | Some t -> t
          | None -> invalid_arg "Cfg: unterminated block"
        in
        { id; stmts = List.rev !stmts; term; origin })
  in
  { fname = f.fname; entry; exit_ = last; blocks }

(* --- graph accessors --- *)

let n_blocks t = Array.length t.blocks
let block t id = t.blocks.(id)

let successors t id =
  match t.blocks.(id).term with
  | Jump n -> [ n ]
  | Cond { on_true; on_false; _ } -> [ on_true; on_false ]
  | Ret -> []

let predecessors t =
  let preds = Array.make (n_blocks t) [] in
  Array.iter
    (fun blk ->
      List.iter (fun s -> preds.(s) <- blk.id :: preds.(s)) (successors t blk.id))
    t.blocks;
  Array.map List.rev preds

(* Reverse postorder from the entry; unreachable blocks are absent. *)
let reverse_postorder t =
  let visited = Array.make (n_blocks t) false in
  let order = ref [] in
  let rec dfs id =
    if not visited.(id) then begin
      visited.(id) <- true;
      List.iter dfs (successors t id);
      order := id :: !order
    end
  in
  dfs t.entry;
  !order
