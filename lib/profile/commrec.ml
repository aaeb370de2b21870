(* Communication-dependence records with graph-guided compression
   (Section III-B2).

   A point-to-point dependence is stored once per distinct
   (receiver rank/vertex, sender rank/vertex, tag, bytes) tuple; repeats
   only bump a hit counter.  Collective participation is folded per vertex
   with a histogram of which rank arrived last — the detector's
   backtracking uses the dominant late rank.  This is what keeps
   ScalAna's storage in the kilobyte range where tracing needs
   gigabytes.

   The p2p edges are columns.  While a run records, an edge is a stride
   of ints (the six key fields, hits, has_wait) in a block of [block]
   edges, plus its max wait in a float block, and an open-addressing
   index over the edge ids finds it again: a repeat allocates nothing,
   and a full block gains a successor instead of being copied.
   [freeze] then writes one exact array per field, in reading order, and
   drops the blocks and the index, so a stored profile is nine flat
   arrays rather than one boxed record per edge. *)

type coll_rec = {
  coll_vertex : int;
  mutable instances : int;
  last_arrivals : (int, int) Hashtbl.t;  (* rank -> #times it arrived last *)
}

(* Per-edge ints while recording: the key, then hits and has_wait. *)
let stride = 8
let f_hits = 6
let f_wait = 7
let block_bits = 8
let block = 1 lsl block_bits
let block_mask = block - 1

type recording = {
  mutable n : int;
  mutable ints : int array array;  (* blocks of [stride * block] ints *)
  mutable waits : Float.Array.t array;  (* blocks of [block] max waits *)
  mutable slots : int array;  (* edge id per slot, -1 when empty *)
}

type edges = {
  recv_rank : int array;
  recv_vertex : int array;
  send_rank : int array;
  send_vertex : int array;
  tag : int array;
  bytes : int array;
  hits : int array;
  has_wait : Bytes.t;  (* '\001': some instance waited *)
  max_wait : Float.Array.t;
}

type t = {
  mutable live : recording option;  (* None once frozen *)
  mutable edges : edges;  (* empty until frozen *)
  colls : (int, coll_rec) Hashtbl.t;
  mutable raw_records : int;  (* before compression, for the ablation *)
}

let no_edges =
  {
    recv_rank = [||];
    recv_vertex = [||];
    send_rank = [||];
    send_vertex = [||];
    tag = [||];
    bytes = [||];
    hits = [||];
    has_wait = Bytes.empty;
    max_wait = Float.Array.create 0;
  }

let create () =
  {
    live = Some { n = 0; ints = [||]; waits = [||]; slots = Array.make 256 (-1) };
    edges = no_edges;
    colls = Hashtbl.create 32;
    raw_records = 0;
  }

(* --- recording --- *)

let[@inline] mix h x =
  let h = (h lxor x) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let[@inline] slot_of ~mask a b c d e f =
  mix (mix (mix (mix (mix (mix 0 a) b) c) d) e) f land mask

(* Does [Float.max x y] return [y]?  [Float.max]'s definition as a
   test, so that keeping the larger wait boxes no float. *)
let[@inline] max_is_second x y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    not (Float.is_nan x)
  else Float.is_nan y

(* Double the index once it is half full, re-placing every edge. *)
let grow_index r =
  let cap = 2 * Array.length r.slots in
  let mask = cap - 1 in
  let slots = Array.make cap (-1) in
  for id = 0 to r.n - 1 do
    let b = r.ints.(id lsr block_bits) and o = (id land block_mask) * stride in
    let i =
      ref
        (slot_of ~mask b.(o) b.(o + 1) b.(o + 2) b.(o + 3) b.(o + 4) b.(o + 5))
    in
    while slots.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id
  done;
  r.slots <- slots

(* Before appending edge [id]: a full last block gets a successor; only
   the spines of block pointers are reallocated as they double. *)
let reserve r id =
  if id land block_mask = 0 then begin
    let k = id lsr block_bits in
    let ints = Array.make (stride * block) 0
    and waits = Float.Array.make block 0.0 in
    if k < Array.length r.ints then begin
      r.ints.(k) <- ints;
      r.waits.(k) <- waits
    end
    else begin
      let spine fresh old =
        let s = Array.make (max 8 (2 * k)) fresh in
        Array.blit old 0 s 0 k;
        s
      in
      r.ints <- spine ints r.ints;
      r.waits <- spine waits r.waits
    end
  end

(* Fold [hits] instances into the edge of this key, adding it when new. *)
let add t ~recv_rank ~recv_vertex ~send_rank ~send_vertex ~tag ~bytes ~hits
    ~has_wait ~max_wait =
  let r =
    match t.live with
    | Some r -> r
    | None -> invalid_arg "Commrec: the records are frozen"
  in
  let mask = Array.length r.slots - 1 in
  let i =
    ref (slot_of ~mask recv_rank recv_vertex send_rank send_vertex tag bytes)
  in
  let found = ref (-1) in
  while !found < 0 && r.slots.(!i) >= 0 do
    let id = r.slots.(!i) in
    let b = r.ints.(id lsr block_bits) and o = (id land block_mask) * stride in
    if
      b.(o) = recv_rank
      && b.(o + 1) = recv_vertex
      && b.(o + 2) = send_rank
      && b.(o + 3) = send_vertex
      && b.(o + 4) = tag
      && b.(o + 5) = bytes
    then found := id
    else i := (!i + 1) land mask
  done;
  let id = !found in
  if id >= 0 then begin
    let b = r.ints.(id lsr block_bits) and o = (id land block_mask) * stride in
    b.(o + f_hits) <- b.(o + f_hits) + hits;
    if has_wait then b.(o + f_wait) <- 1;
    let w = r.waits.(id lsr block_bits) and j = id land block_mask in
    if max_is_second (Float.Array.get w j) max_wait then
      Float.Array.set w j max_wait
  end
  else begin
    let id = r.n in
    reserve r id;
    let b = r.ints.(id lsr block_bits) and o = (id land block_mask) * stride in
    b.(o) <- recv_rank;
    b.(o + 1) <- recv_vertex;
    b.(o + 2) <- send_rank;
    b.(o + 3) <- send_vertex;
    b.(o + 4) <- tag;
    b.(o + 5) <- bytes;
    b.(o + f_hits) <- hits;
    b.(o + f_wait) <- Bool.to_int has_wait;
    Float.Array.set r.waits.(id lsr block_bits) (id land block_mask) max_wait;
    r.slots.(!i) <- id;
    r.n <- id + 1;
    if 2 * r.n > Array.length r.slots then grow_index r
  end

let record_p2p t ~recv_rank ~recv_vertex ~send_rank ~send_vertex ~tag ~bytes
    ~waited ~wait_seconds =
  t.raw_records <- t.raw_records + 1;
  add t ~recv_rank ~recv_vertex ~send_rank ~send_vertex ~tag ~bytes ~hits:1
    ~has_wait:waited ~max_wait:wait_seconds

let record_coll t ~vertex ~last_arrival_rank =
  t.raw_records <- t.raw_records + 1;
  let r =
    match Hashtbl.find_opt t.colls vertex with
    | Some r -> r
    | None ->
        let r =
          { coll_vertex = vertex; instances = 0; last_arrivals = Hashtbl.create 8 }
        in
        Hashtbl.add t.colls vertex r;
        r
  in
  r.instances <- r.instances + 1;
  let n =
    try Hashtbl.find r.last_arrivals last_arrival_rank with Not_found -> 0
  in
  Hashtbl.replace r.last_arrivals last_arrival_rank (n + 1)

(* --- freezing ---

   Reading order is the order in which the hash table these columns
   replaced listed its edges, since [Ppg.critical_edge] keeps the first
   of equal waits in it and so decides backtracking paths.  That table
   started at 256 buckets and doubled whenever it held more than twice
   as many edges as buckets; it listed its buckets in ascending order,
   each bucket newest edge first, and put a key in bucket
   [Hashtbl.hash key land (buckets - 1)], the hash of the six-int
   record (a six-int tuple has the same layout, hence the same hash). *)
let freeze t =
  match t.live with
  | None -> ()
  | Some r ->
      let n = r.n in
      let field f id =
        r.ints.(id lsr block_bits).(((id land block_mask) * stride) + f)
      in
      let buckets = ref 256 in
      while n > 2 * !buckets do
        buckets := 2 * !buckets
      done;
      let mask = !buckets - 1 in
      (* counting sort by bucket; ids placed newest first *)
      let start = Array.make (!buckets + 1) 0 in
      let bucket =
        Array.init n (fun id ->
            let b =
              Hashtbl.hash
                ( field 0 id,
                  field 1 id,
                  field 2 id,
                  field 3 id,
                  field 4 id,
                  field 5 id )
              land mask
            in
            start.(b + 1) <- start.(b + 1) + 1;
            b)
      in
      for b = 1 to !buckets do
        start.(b) <- start.(b) + start.(b - 1)
      done;
      let order = Array.make n 0 in
      for id = n - 1 downto 0 do
        let b = bucket.(id) in
        order.(start.(b)) <- id;
        start.(b) <- start.(b) + 1
      done;
      let col f = Array.map (field f) order in
      let max_wait = Float.Array.create n in
      Array.iteri
        (fun p id ->
          Float.Array.set max_wait p
            (Float.Array.get r.waits.(id lsr block_bits) (id land block_mask)))
        order;
      t.edges <-
        {
          recv_rank = col 0;
          recv_vertex = col 1;
          send_rank = col 2;
          send_vertex = col 3;
          tag = col 4;
          bytes = col 5;
          hits = col f_hits;
          has_wait =
            Bytes.init n (fun p -> Char.chr (field f_wait order.(p)));
          max_wait;
        };
      t.live <- None

(* --- reading --- *)

let n_p2p t =
  match t.live with Some r -> r.n | None -> Array.length t.edges.recv_rank

let recv_rank t e = t.edges.recv_rank.(e)
let recv_vertex t e = t.edges.recv_vertex.(e)
let send_rank t e = t.edges.send_rank.(e)
let send_vertex t e = t.edges.send_vertex.(e)
let tag t e = t.edges.tag.(e)
let bytes t e = t.edges.bytes.(e)
let hits t e = t.edges.hits.(e)
let has_wait t e = Bytes.get t.edges.has_wait e <> '\000'
let max_wait t e = Float.Array.get t.edges.max_wait e
let raw_records t = t.raw_records

let coll_records t = Hashtbl.fold (fun _ r acc -> r :: acc) t.colls []

(* The rank that most often arrived last at this collective vertex. *)
let dominant_late_rank (r : coll_rec) =
  Hashtbl.fold
    (fun rank n (best_rank, best_n) ->
      if n > best_n then (rank, n) else (best_rank, best_n))
    r.last_arrivals (-1, 0)
  |> fst

let n_coll t = Hashtbl.length t.colls

(* Merge [src] into [into] with ranks renumbered through [map] — an
   elastic epoch's records, local ranks mapped to global ids.  Sources
   are drained in sorted order so the destination's insertion order (and
   hence its reading order) is a function of content alone. *)
let merge_renumbered ~into ~map src =
  freeze src;
  let s = src.edges in
  let rec by_key cols a b =
    match cols with
    | [] -> 0
    | c :: rest ->
        let d = Int.compare c.(a) c.(b) in
        if d <> 0 then d else by_key rest a b
  in
  let sorted = Array.init (n_p2p src) Fun.id in
  Array.sort
    (by_key
       [ s.recv_rank; s.recv_vertex; s.send_rank; s.send_vertex; s.tag; s.bytes ])
    sorted;
  Array.iter
    (fun e ->
      add into ~recv_rank:(map s.recv_rank.(e)) ~recv_vertex:s.recv_vertex.(e)
        ~send_rank:(map s.send_rank.(e)) ~send_vertex:s.send_vertex.(e)
        ~tag:s.tag.(e) ~bytes:s.bytes.(e) ~hits:s.hits.(e)
        ~has_wait:(has_wait src e) ~max_wait:(max_wait src e))
    sorted;
  Hashtbl.fold (fun _ r acc -> r :: acc) src.colls []
  |> List.sort (fun a b -> compare a.coll_vertex b.coll_vertex)
  |> List.iter (fun r ->
         let dst =
           match Hashtbl.find_opt into.colls r.coll_vertex with
           | Some d -> d
           | None ->
               let d =
                 {
                   coll_vertex = r.coll_vertex;
                   instances = 0;
                   last_arrivals = Hashtbl.create 8;
                 }
               in
               Hashtbl.add into.colls r.coll_vertex d;
               d
         in
         dst.instances <- dst.instances + r.instances;
         Hashtbl.fold (fun rank n acc -> (rank, n) :: acc) r.last_arrivals []
         |> List.sort compare
         |> List.iter (fun (rank, n) ->
                let g = map rank in
                let cur =
                  try Hashtbl.find dst.last_arrivals g with Not_found -> 0
                in
                Hashtbl.replace dst.last_arrivals g (cur + n)));
  into.raw_records <- into.raw_records + src.raw_records

(* Size model: a packed p2p record is 6 ints + flags = 28 B; a collective
   record is vertex + count + histogram entries of 8 B. *)
let storage_bytes t =
  (28 * n_p2p t)
  + Hashtbl.fold
      (fun _ r acc -> acc + 12 + (8 * Hashtbl.length r.last_arrivals))
      t.colls 0

let uncompressed_bytes t = 28 * t.raw_records
