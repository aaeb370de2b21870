(* Attribution index: map a dynamic (call path, source location) pair to
   the contracted-PSG vertex that owns it.

   The runtime walks statements with a dynamic call path (the list of
   call-site locations on the stack).  For statements whose expansion
   exists in the PSG the lookup is exact; samples inside recursive
   re-entries fold onto the first expansion (call paths are truncated
   frame by frame), and samples inside not-yet-refined indirect calls
   attribute to the callsite vertex itself. *)

open Scalana_mlang

type t = {
  tbl : (string, int) Hashtbl.t;
  contracted : Psg.t;
}

let key callpath loc =
  let buf = Buffer.create 64 in
  List.iter
    (fun l ->
      Buffer.add_string buf (Loc.to_string l);
      Buffer.add_char buf '>')
    callpath;
  Buffer.add_string buf (Loc.to_string loc);
  Buffer.contents buf

let build ~(full : Psg.t) ~(contraction : Contract.result) =
  let tbl = Hashtbl.create 1024 in
  Psg.iter
    (fun v ->
      match Contract.new_id contraction v.Vertex.id with
      | Some nid ->
          let k = key v.callpath v.loc in
          if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k nid
      | None -> ())
    full;
  { tbl; contracted = contraction.psg }

(* Refresh after indirect-call refinement added vertices to the
   contracted graph itself: index the new vertices directly. *)
let index_contracted_subtree t root_id =
  List.iter
    (fun id ->
      let v = Psg.vertex t.contracted id in
      let k = key v.Vertex.callpath v.loc in
      if not (Hashtbl.mem t.tbl k) then Hashtbl.add t.tbl k id)
    (Psg.subtree_vertices t.contracted root_id)

let rec find t ~callpath ~loc =
  match Hashtbl.find_opt t.tbl (key callpath loc) with
  | Some id -> Some id
  | None -> (
      (* Fold recursive frames / unresolved indirect frames: retry with
         the innermost frame as the target location. *)
      match List.rev callpath with
      | [] -> None
      | innermost :: rest_rev ->
          let shorter = List.rev rest_rev in
          (match Hashtbl.find_opt t.tbl (key shorter innermost) with
          | Some id -> Some id
          | None -> find t ~callpath:shorter ~loc))

let exact t ~callpath ~loc = Hashtbl.find_opt t.tbl (key callpath loc)
let size t = Hashtbl.length t.tbl

(* Per-run memo over [find], keyed by the runtime's calling-context ids
   (see [Scalana_runtime.Instrument.ctx]): slot [cctx] holds the
   (loc, answer) pairs seen under that context, a handful per context,
   so a hit is one array read and a short scan.  The scan compares the
   stored location physically first: the runtime hands over each
   statement's own [Loc.t] every time, so a hit rarely reaches the line
   and file test (whose string compare is a C call).
   The call path is only read on a miss, by [find] itself.  Misses,
   [None] included, are remembered as [find]'s answer, so the memo never
   disagrees with it.

   The memo lives outside [t] on purpose: the static artifact Marshals
   [t], so its representation must not change.  A resolver must not
   outlive its run: context ids mean nothing in another run, and
   [index_contracted_subtree] grows [t] after a run, so a memoised
   [None] would hide the spliced vertices. *)
module Resolver = struct
  type index = t

  type nonrec t = {
    index : index;
    mutable by_ctx : (Loc.t * int option) list array;
  }

  let create index = { index; by_ctx = Array.make 64 [] }

  let rec lookup (loc : Loc.t) = function
    | [] -> raise_notrace Not_found
    | ((l : Loc.t), v) :: rest ->
        if l == loc || (l.line = loc.line && String.equal l.file loc.file)
        then v
        else lookup loc rest

  let find r ~cctx ~callpath ~loc =
    if cctx >= Array.length r.by_ctx then begin
      let by_ctx = Array.make (max (cctx + 1) (2 * Array.length r.by_ctx)) [] in
      Array.blit r.by_ctx 0 by_ctx 0 (Array.length r.by_ctx);
      r.by_ctx <- by_ctx
    end;
    let seen = r.by_ctx.(cctx) in
    match lookup loc seen with
    | v -> v
    | exception Not_found ->
        let v = find r.index ~callpath ~loc in
        r.by_ctx.(cctx) <- (loc, v) :: seen;
        v
end
