(* Message matching and collective synchronization.

   Implements the standard MPI two-queue model per receiver (posted
   receives vs unexpected messages) with tag/source wildcards and
   non-overtaking order, an eager/rendezvous protocol switch, and
   sequence-numbered collective instances with full-synchronization cost
   semantics.  The [on_complete] callback lets the scheduler wake blocked
   processes the moment a request completes.

   This is the simulator's hottest data structure.  Requests and messages
   are not records but slots in per-communicator columns (one array per
   field), grown by doubling from [initial_slots].  A slot goes back to a
   free list once nothing can reach it: a request when its posting rank
   has let go of it ([release]) and it has completed, a message when it
   has been consumed and the receive that matched it is freed.  The
   lowest-clock-first scheduler sweeps every rank between a post and its
   match, and at thousands of ranks a record per in-flight request
   outlived the minor heap and was promoted; a slot is reused instead.
   Queues hold handles (slot plus the occupant's generation, see
   [handle_step]), as do the message->sender-request and
   request->message links, so a tombstone never matches a recycled
   slot.  Queues are flat int arrays with tombstoned removal (matching
   marks an entry dead in place; entries are reclaimed in bulk when a
   queue next needs room), wildcards are sentinel integers, and
   exact-match receives carry a packed (src, tag) key so the common
   non-wildcard probe is a single integer comparison.

   Posting and matching allocate only when a column or a queue doubles;
   no float is boxed on the way (dune's dev profile compiles with
   [-opaque], so every float passed to or returned from another
   module's function would be).  Collective instances accumulate a
   count and a running latest-arrival instead of an arrival list, which
   turns the per-collective cost from O(nprocs^2) to O(nprocs) — the
   seed engine's dominant term at np >= 4096; an arrival allocates only
   when it opens an instance. *)

open Scalana_mlang

(* Wildcard sentinels.  [min_int] cannot be produced by a program's
   source/tag expression in practice, and explicit sources are validated
   into [0, nprocs) anyway. *)
let any_src = min_int
let any_tag = min_int

(* No request or message. *)
let nil = -1

(* A handle is a slot in its low [slot_bits] bits plus the generation
   of the slot's occupant above them.  Freeing a slot adds [handle_step]
   to the handle it stores, so a handle kept by a queue or a link after
   its slot was freed (and perhaps taken again) no longer equals the
   slot's handle. *)
let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let handle_step = 1 lsl slot_bits
let initial_slots = 16

(* Packed (src, tag) fast path: when both fit in 30 bits the pair packs
   into one non-negative int, and two packed keys are equal iff the
   pairs are.  Out-of-range tags fall back to field comparison — the
   pack condition is identical on both sides, so a packed request key
   can never equal an unpackable message key. *)
let key_bits = 30
let key_max = (1 lsl key_bits) - 1

let pack_key src tag =
  if src >= 0 && src <= key_max && tag >= 0 && tag <= key_max then
    (src lsl key_bits) lor tag
  else -1

(* [Float.max], without its two [sign_bit] C calls when the arguments
   are ordered; equal to it on every input, NaN and signed zeros
   included.  Defined here rather than shared: a call across modules
   would box its result. *)
let[@inline] fmax x y = if y > x then y else if x > y then x else Float.max x y

(* --- flat queues of handles with tombstoned removal --- *)

type queue = {
  mutable buf : int array;
  mutable head : int;  (* first possibly-live entry *)
  mutable tail : int;  (* one past the last entry in use *)
}

let queue_create () = { buf = Array.make 4 nil; head = 0; tail = 0 }

(* An entry is dead once its slot was freed or its occupant finished
   (a request completed, a message consumed). *)
let[@inline] dead ~handles ~finished h =
  let i = h land slot_mask in
  handles.(i) <> h || finished.(i)

(* Drop dead entries in order; grow only when mostly live.  In-place
   compaction is safe because the write index never passes the read
   index. *)
let compact ~handles ~finished q =
  let live = ref 0 in
  for i = q.head to q.tail - 1 do
    if not (dead ~handles ~finished q.buf.(i)) then incr live
  done;
  let cap = Array.length q.buf in
  let buf = if 2 * !live >= cap then Array.make (2 * cap) nil else q.buf in
  let j = ref 0 in
  for i = q.head to q.tail - 1 do
    let h = q.buf.(i) in
    if not (dead ~handles ~finished h) then begin
      buf.(!j) <- h;
      incr j
    end
  done;
  q.buf <- buf;
  q.head <- 0;
  q.tail <- !j

let push ~handles ~finished q h =
  if q.tail = Array.length q.buf then compact ~handles ~finished q;
  q.buf.(q.tail) <- h;
  q.tail <- q.tail + 1

(* Every communicator prices its messages and collectives by the one
   network model. *)
let net = Network.default

type t = {
  nprocs : int;
  unexpected : queue array;  (* per destination, send order *)
  posted : queue array;  (* per receiver, post order *)
  colls : (int, coll) Hashtbl.t;  (* in-flight instances by sequence *)
  mutable on_complete : int -> unit;
  mutable messages_sent : int;
  (* requests, by slot *)
  mutable r_handle : int array;
  mutable r_recv : bool array;
  mutable r_held : bool array;  (* the posting rank has not released it *)
  mutable r_completed : bool array;  (* tombstone in the posted queue *)
  mutable r_post_time : float array;
  mutable r_want_src : int array;
  mutable r_want_tag : int array;
  mutable r_key : int array;  (* packed exact (src, tag), -1 when wildcarded *)
  mutable r_loc : Loc.t array;
  mutable r_completion : float array;
  mutable r_matched : int array;  (* message handle, [nil] = none *)
  mutable r_waiter : int array;  (* blocked rank to wake, -1 = none *)
  mutable r_free : int array;  (* free slots, a stack *)
  mutable r_nfree : int;
  (* messages, by slot *)
  mutable m_handle : int array;
  mutable m_src : int array;
  mutable m_tag : int array;
  mutable m_bytes : int array;
  mutable m_key : int array;  (* packed (src, tag), -1 when it doesn't pack *)
  mutable m_send_time : float array;
  mutable m_arrival : float array;  (* infinity until scheduled (rendezvous) *)
  mutable m_loc : Loc.t array;
  mutable m_cctx : int array;  (* sender's calling-context id (0 in bare runs) *)
  mutable m_eager : bool array;
  mutable m_consumed : bool array;  (* tombstone in the unexpected queue *)
  mutable m_sreq : int array;  (* sender's request handle *)
  mutable m_free : int array;
  mutable m_nfree : int;
}

and coll = {
  coll_seq : int;
  coll_kind : Ast.mpi_call;
  mutable n_arrived : int;
  mutable finished : bool;
  mutable last_arrival_rank : int;
  mutable waiters : int;  (* newest blocked rank, -1 = none *)
  times : coll_times;
}

(* All floats, so stored unboxed: updating one allocates nothing. *)
and coll_times = {
  mutable max_arrival : float;  (* chronologically-latest max so far *)
  mutable start_time : float;
  mutable finish_time : float;
}

(* --- slots --- *)

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Handles for slots [0, n): the old ones kept, generation 0 for the
   new ones. *)
let extend_handles a n =
  let cap = Array.length a in
  Array.init n (fun i -> if i < cap then a.(i) else i)

(* A free stack holding the new slots [cap, n) only, lowest on top. *)
let fresh_free ~cap n =
  let free = Array.make n 0 in
  for k = 0 to n - cap - 1 do
    free.(k) <- n - 1 - k
  done;
  free

let grow_requests t =
  let cap = Array.length t.r_handle in
  let n = 2 * cap in
  t.r_handle <- extend_handles t.r_handle n;
  t.r_recv <- extend t.r_recv n false;
  t.r_held <- extend t.r_held n false;
  t.r_completed <- extend t.r_completed n false;
  t.r_post_time <- extend t.r_post_time n 0.0;
  t.r_want_src <- extend t.r_want_src n any_src;
  t.r_want_tag <- extend t.r_want_tag n any_tag;
  t.r_key <- extend t.r_key n (-1);
  t.r_loc <- extend t.r_loc n Loc.none;
  t.r_completion <- extend t.r_completion n 0.0;
  t.r_matched <- extend t.r_matched n nil;
  t.r_waiter <- extend t.r_waiter n (-1);
  t.r_free <- fresh_free ~cap n;
  t.r_nfree <- n - cap

let grow_messages t =
  let cap = Array.length t.m_handle in
  let n = 2 * cap in
  t.m_handle <- extend_handles t.m_handle n;
  t.m_src <- extend t.m_src n (-1);
  t.m_tag <- extend t.m_tag n 0;
  t.m_bytes <- extend t.m_bytes n 0;
  t.m_key <- extend t.m_key n (-1);
  t.m_send_time <- extend t.m_send_time n 0.0;
  t.m_arrival <- extend t.m_arrival n 0.0;
  t.m_loc <- extend t.m_loc n Loc.none;
  t.m_cctx <- extend t.m_cctx n 0;
  t.m_eager <- extend t.m_eager n false;
  t.m_consumed <- extend t.m_consumed n false;
  t.m_sreq <- extend t.m_sreq n nil;
  t.m_free <- fresh_free ~cap n;
  t.m_nfree <- n - cap

let take_request t =
  if t.r_nfree = 0 then grow_requests t;
  t.r_nfree <- t.r_nfree - 1;
  t.r_free.(t.r_nfree)

let take_message t =
  if t.m_nfree = 0 then grow_messages t;
  t.m_nfree <- t.m_nfree - 1;
  t.m_free.(t.m_nfree)

let free_message t m =
  t.m_handle.(m) <- t.m_handle.(m) + handle_step;
  t.m_free.(t.m_nfree) <- m;
  t.m_nfree <- t.m_nfree + 1

(* A receive takes the message it matched with it: nothing else reads a
   consumed message. *)
let free_request t r =
  let m = t.r_matched.(r) in
  if m <> nil then free_message t (m land slot_mask);
  t.r_handle.(r) <- t.r_handle.(r) + handle_step;
  t.r_free.(t.r_nfree) <- r;
  t.r_nfree <- t.r_nfree + 1

let create ~nprocs =
  let n = initial_slots in
  {
    nprocs;
    unexpected = Array.init nprocs (fun _ -> queue_create ());
    posted = Array.init nprocs (fun _ -> queue_create ());
    colls = Hashtbl.create 64;
    on_complete = (fun _ -> ());
    messages_sent = 0;
    r_handle = Array.init n Fun.id;
    r_recv = Array.make n false;
    r_held = Array.make n false;
    r_completed = Array.make n false;
    r_post_time = Array.make n 0.0;
    r_want_src = Array.make n any_src;
    r_want_tag = Array.make n any_tag;
    r_key = Array.make n (-1);
    r_loc = Array.make n Loc.none;
    r_completion = Array.make n 0.0;
    r_matched = Array.make n nil;
    r_waiter = Array.make n (-1);
    r_free = fresh_free ~cap:0 n;
    r_nfree = n;
    m_handle = Array.init n Fun.id;
    m_src = Array.make n (-1);
    m_tag = Array.make n 0;
    m_bytes = Array.make n 0;
    m_key = Array.make n (-1);
    m_send_time = Array.make n 0.0;
    m_arrival = Array.make n 0.0;
    m_loc = Array.make n Loc.none;
    m_cctx = Array.make n 0;
    m_eager = Array.make n false;
    m_consumed = Array.make n false;
    m_sreq = Array.make n nil;
    m_free = fresh_free ~cap:0 n;
    m_nfree = n;
  }

let set_on_complete t f = t.on_complete <- f

let release t r =
  if t.r_completed.(r) then free_request t r else t.r_held.(r) <- false

let matched t r =
  let m = t.r_matched.(r) in
  if m = nil then nil else m land slot_mask

(* Inlined so [at] stays unboxed. *)
let[@inline] complete t r ~at =
  t.r_completed.(r) <- true;
  t.r_completion.(r) <- at;
  t.on_complete r;
  if not t.r_held.(r) then free_request t r

let[@inline] matches t r m =
  if t.r_key.(r) >= 0 then t.r_key.(r) = t.m_key.(m)
  else
    let src = t.r_want_src.(r) and tag = t.r_want_tag.(r) in
    (src = any_src || src = t.m_src.(m)) && (tag = any_tag || tag = t.m_tag.(m))

(* Join a message with a posted receive and complete both sides.  The
   message becomes a tombstone in whichever queue holds it. *)
let consume t r m =
  t.m_consumed.(m) <- true;
  t.r_matched.(r) <- t.m_handle.(m);
  if t.m_eager.(m) then
    (* transfer was already in flight; the receive sees it at arrival *)
    complete t r ~at:(fmax t.r_post_time.(r) t.m_arrival.(m))
  else begin
    (* rendezvous: transfer starts when both sides are ready *)
    t.m_arrival.(m) <- fmax t.r_post_time.(r) t.m_send_time.(m);
    Network.add_transfer_time net t.m_bytes.(m) t.m_arrival m;
    let arrival = t.m_arrival.(m) in
    let sh = t.m_sreq.(m) in
    let s = sh land slot_mask in
    if t.r_handle.(s) = sh && not t.r_completed.(s) then
      complete t s ~at:arrival;
    complete t r ~at:arrival
  end

(* Post a send at [clock.(src)]; returns the sender-side request
   (already completed for eager messages). *)
let send t ~src ~dst ~tag ~bytes ~clock ~loc ~cctx =
  if dst < 0 || dst >= t.nprocs then
    Fmt.invalid_arg "send to rank %d outside 0..%d (%s)" dst (t.nprocs - 1)
      (Loc.to_string loc);
  t.messages_sent <- t.messages_sent + 1;
  let time = clock.(src) in
  let eager = Network.is_eager net bytes in
  let s = take_request t in
  t.r_recv.(s) <- false;
  t.r_held.(s) <- true;
  t.r_completed.(s) <- eager;
  t.r_completion.(s) <- (if eager then time else infinity);
  t.r_matched.(s) <- nil;
  t.r_waiter.(s) <- -1;
  let m = take_message t in
  t.m_src.(m) <- src;
  t.m_tag.(m) <- tag;
  t.m_bytes.(m) <- bytes;
  t.m_key.(m) <- pack_key src tag;
  t.m_send_time.(m) <- time;
  if eager then begin
    t.m_arrival.(m) <- time;
    Network.add_transfer_time net bytes t.m_arrival m
  end
  else t.m_arrival.(m) <- infinity;
  t.m_loc.(m) <- loc;
  t.m_cctx.(m) <- cctx;
  t.m_eager.(m) <- eager;
  t.m_consumed.(m) <- false;
  t.m_sreq.(m) <- t.r_handle.(s);
  (* match against posted receives of the destination, FIFO *)
  let q = t.posted.(dst) in
  let handles = t.r_handle and finished = t.r_completed in
  while q.head < q.tail && dead ~handles ~finished q.buf.(q.head) do
    q.head <- q.head + 1
  done;
  let i = ref q.head in
  let matched = ref false in
  while (not !matched) && !i < q.tail do
    let h = q.buf.(!i) in
    let r = h land slot_mask in
    if (not (dead ~handles ~finished h)) && matches t r m then begin
      consume t r m;
      matched := true
    end
    else incr i
  done;
  if not !matched then
    push ~handles:t.m_handle ~finished:t.m_consumed t.unexpected.(dst)
      t.m_handle.(m);
  s

(* Post a receive at [clock.(rank)]; returns the request (already
   completed when a matching unexpected message was waiting). *)
let post_recv t ~rank ~src ~tag ~clock ~loc =
  if src <> any_src && (src < 0 || src >= t.nprocs) then
    Fmt.invalid_arg "recv from rank %d outside 0..%d (%s)" src (t.nprocs - 1)
      (Loc.to_string loc);
  let r = take_request t in
  t.r_recv.(r) <- true;
  t.r_held.(r) <- true;
  t.r_completed.(r) <- false;
  t.r_post_time.(r) <- clock.(rank);
  t.r_want_src.(r) <- src;
  t.r_want_tag.(r) <- tag;
  t.r_key.(r) <-
    (if src <> any_src && tag <> any_tag then pack_key src tag else -1);
  t.r_loc.(r) <- loc;
  t.r_completion.(r) <- infinity;
  t.r_matched.(r) <- nil;
  t.r_waiter.(r) <- -1;
  let q = t.unexpected.(rank) in
  let handles = t.m_handle and finished = t.m_consumed in
  while q.head < q.tail && dead ~handles ~finished q.buf.(q.head) do
    q.head <- q.head + 1
  done;
  let i = ref q.head in
  let matched = ref false in
  while (not !matched) && !i < q.tail do
    let h = q.buf.(!i) in
    let m = h land slot_mask in
    if (not (dead ~handles ~finished h)) && matches t r m then begin
      consume t r m;
      matched := true
    end
    else incr i
  done;
  if not !matched then
    push ~handles:t.r_handle ~finished:t.r_completed t.posted.(rank)
      t.r_handle.(r);
  r

(* Constructor identity of an MPI call, for the cheap collective
   mismatch check (codes are distinct per constructor, so equal codes
   iff equal [Ast.mpi_name]s). *)
let kind_code : Ast.mpi_call -> int = function
  | Ast.Send _ -> 0
  | Ast.Recv _ -> 1
  | Ast.Isend _ -> 2
  | Ast.Irecv _ -> 3
  | Ast.Wait _ -> 4
  | Ast.Waitall _ -> 5
  | Ast.Sendrecv _ -> 6
  | Ast.Barrier -> 7
  | Ast.Bcast _ -> 8
  | Ast.Reduce _ -> 9
  | Ast.Allreduce _ -> 10
  | Ast.Alltoall _ -> 11
  | Ast.Allgather _ -> 12

let open_coll t ~seq ~kind =
  let c =
    {
      coll_seq = seq;
      coll_kind = kind;
      n_arrived = 0;
      finished = false;
      last_arrival_rank = -1;
      waiters = -1;
      times =
        { max_arrival = neg_infinity; start_time = 0.0; finish_time = 0.0 };
    }
  in
  Hashtbl.replace t.colls seq c;
  c

(* Register arrival of [rank] at the [seq]-th collective call, at
   [clock.(rank)].  Returns the instance; when this arrival is the last
   one the instance is finalized (start/finish times set, [finished] =
   true) and dropped from the in-flight table.  The latest arrival is
   tracked as a running (count, max, argmax) triple; [>=] keeps the
   chronologically last rank among ties, matching the historical fold
   over a newest-first arrival list. *)
let coll_arrive t ~seq ~rank ~clock ~kind ~bytes =
  let c =
    match Hashtbl.find t.colls seq with
    | c ->
        if kind_code c.coll_kind <> kind_code kind then
          Fmt.invalid_arg
            "collective mismatch at sequence %d: rank %d calls %s, others %s"
            seq rank (Ast.mpi_name kind)
            (Ast.mpi_name c.coll_kind);
        c
    | exception Not_found -> open_coll t ~seq ~kind
  in
  let time = clock.(rank) in
  let at = c.times in
  c.n_arrived <- c.n_arrived + 1;
  if time >= at.max_arrival then begin
    at.max_arrival <- time;
    c.last_arrival_rank <- rank
  end;
  if c.n_arrived = t.nprocs then begin
    at.start_time <- at.max_arrival;
    at.finish_time <-
      at.max_arrival +. Network.collective_time net ~nprocs:t.nprocs ~bytes kind;
    c.finished <- true;
    Hashtbl.remove t.colls seq
  end;
  c

let pending_summary t =
  let buf = Buffer.create 128 in
  Array.iteri
    (fun rank q ->
      for i = q.head to q.tail - 1 do
        let h = q.buf.(i) in
        if not (dead ~handles:t.r_handle ~finished:t.r_completed h) then begin
          let r = h land slot_mask in
          let src = t.r_want_src.(r) and tag = t.r_want_tag.(r) in
          Buffer.add_string buf
            (Printf.sprintf "  rank %d: recv posted at %s (src=%s tag=%s)\n"
               rank (Loc.to_string t.r_loc.(r))
               (if src = any_src then "any" else string_of_int src)
               (if tag = any_tag then "any" else string_of_int tag))
        end
      done)
    t.posted;
  Array.iteri
    (fun rank q ->
      for i = q.head to q.tail - 1 do
        let h = q.buf.(i) in
        if not (dead ~handles:t.m_handle ~finished:t.m_consumed h) then begin
          let m = h land slot_mask in
          Buffer.add_string buf
            (Printf.sprintf "  rank %d: unconsumed msg from %d tag %d (%s)\n"
               rank t.m_src.(m) t.m_tag.(m) (Loc.to_string t.m_loc.(m)))
        end
      done)
    t.unexpected;
  Buffer.contents buf
