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

(* Per-run memo over [find].  The profiler and the timeline recorder
   resolve the same few calling contexts millions of times per run;
   [key] above builds a string per frame on every call, so each distinct
   (call path, loc) is resolved once here and later hits cost one
   structural hash and compare.  Misses, [None] included, are remembered
   as [find]'s answer, so the memo never disagrees with it.

   The memo lives outside [t] on purpose: the static artifact Marshals
   [t], so its representation must not change.  A resolver must not
   outlive its run: [index_contracted_subtree] grows [t] after a run,
   and a memoised [None] would hide the spliced vertices. *)
module Resolver = struct
  (* Every frame's line feeds the hash: polymorphic [Hashtbl.hash] stops
     after ten meaningful words, which would pile deep call paths into
     one bucket.  Files are compared but not hashed: a program's frames
     share one file, so hashing its name would cost a string hash per
     frame and separate nothing. *)
  let mix h (l : Loc.t) = (h lxor l.line) * 0x100000001b3

  let hash callpath loc =
    let h = List.fold_left mix (mix 0xcbf29ce4 loc) callpath in
    h lxor (h lsr 31)

  type index = t

  (* Open hashing over a power-of-two bucket array that doubles past two
     entries per bucket.  Not [Hashtbl.Make]: applying the functor at
     module initialisation raised the peak heap of every process by
     ~128 KB, profiling or not. *)
  type nonrec t = {
    index : index;
    mutable buckets : (Loc.t list * Loc.t * int option) list array;
    mutable entries : int;
  }

  let create index = { index; buckets = Array.make 64 []; entries = 0 }

  let grow r =
    let old = r.buckets in
    let mask = (2 * Array.length old) - 1 in
    let buckets = Array.make (mask + 1) [] in
    Array.iter
      (List.iter (fun ((callpath, loc, _) as e) ->
           let i = hash callpath loc land mask in
           buckets.(i) <- e :: buckets.(i)))
      old;
    r.buckets <- buckets

  let rec lookup callpath loc = function
    | [] -> raise_notrace Not_found
    | (p, l, v) :: rest ->
        if Loc.equal l loc && List.equal Loc.equal p callpath then v
        else lookup callpath loc rest

  let find r ~callpath ~loc =
    let i = hash callpath loc land (Array.length r.buckets - 1) in
    match lookup callpath loc r.buckets.(i) with
    | v -> v
    | exception Not_found ->
        let v = find r.index ~callpath ~loc in
        r.buckets.(i) <- (callpath, loc, v) :: r.buckets.(i);
        r.entries <- r.entries + 1;
        if r.entries > 2 * Array.length r.buckets then grow r;
        v
end
