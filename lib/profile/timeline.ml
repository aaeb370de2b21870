(* Application-level rank timeline: per-rank compute intervals, MPI
   enter/exit events and matched messages, recorded by an Instrument
   tool during a simulated run.

   Two design rules keep it honest and bounded:

   - zero recorded overhead: every hook returns 0.0, so the recorder
     rides in a profiled run (after the regular profiler) without moving
     its clocks — the timeline is evidence about the session, not about
     a perturbed re-run;

   - graph-guided compression + a hard cap: consecutive compute
     intervals resolving to the same contracted-PSG vertex are merged
     (loop iterations collapse into one slice per streak), and once
     [max_events] intervals+messages are recorded, further events are
     dropped and counted per rank.  Blocked-time totals keep
     accumulating past the cap, so wait-state attribution can always be
     stated as a fraction of the true blocked time.

   The layout is columnar, so recording allocates nothing per event
   that the GC must promote and mark: every field is a column of
   unboxed entries, appended in blocks that are never copied. *)

open Scalana_psg
open Scalana_runtime
module Obs = Scalana_obs.Obs

type config = { max_events : int }

let default_config = { max_events = 200_000 }

(* --- append-only columns --- *)

(* Entries live in blocks of [block] entries ([int array],
   [string array] or [Float.Array.t]), so a full column gains a block
   and never copies the entries it holds; only the spine of block
   pointers is reallocated as it doubles. *)
let block_bits = 10
let block = 1 lsl block_bits
let mask = block - 1

type 'b col = { mutable blocks : 'b array; mutable len : int }

let col () = { blocks = [||]; len = 0 }

(* Before an append: a full last block gets a successor. *)
let reserve c fresh =
  if c.len land mask = 0 then begin
    let b = fresh () in
    let n = c.len lsr block_bits in
    if n < Array.length c.blocks then c.blocks.(n) <- b
    else begin
      let spine = Array.make (max 8 (2 * n)) b in
      Array.blit c.blocks 0 spine 0 n;
      c.blocks <- spine
    end
  end

let int_block () = Array.make block 0
let float_block () = Float.Array.make block 0.0
let string_block () = Array.make block ""

let[@inline] push_int (c : int array col) x =
  reserve c int_block;
  c.blocks.(c.len lsr block_bits).(c.len land mask) <- x;
  c.len <- c.len + 1

let[@inline] push_float (c : Float.Array.t col) x =
  reserve c float_block;
  Float.Array.set c.blocks.(c.len lsr block_bits) (c.len land mask) x;
  c.len <- c.len + 1

let push_string (c : string array col) x =
  reserve c string_block;
  c.blocks.(c.len lsr block_bits).(c.len land mask) <- x;
  c.len <- c.len + 1

let[@inline] int_at (c : int array col) i =
  c.blocks.(i lsr block_bits).(i land mask)

let[@inline] float_at (c : Float.Array.t col) i =
  Float.Array.get c.blocks.(i lsr block_bits) (i land mask)

let string_at (c : string array col) i =
  c.blocks.(i lsr block_bits).(i land mask)

let set_int (c : int array col) i x =
  c.blocks.(i lsr block_bits).(i land mask) <- x

let set_float (c : Float.Array.t col) i x =
  Float.Array.set c.blocks.(i lsr block_bits) (i land mask) x

(* An interval's [kind]: compute, point-to-point MPI, or (>= 0) a
   collective, whose row in the [coll_*] columns it is. *)
let compute = -2
let p2p = -1

(* One row per interval ("slot"), in recording order, plus side
   columns the slots index by offset: a slot's dependence rows run from
   its [first_dep] to the next slot's, and likewise its destinations. *)
type columns = {
  rank : int array col;
  vertex : int array col;  (* -1: unresolved *)
  start : Float.Array.t col;
  stop : Float.Array.t col;  (* a merge extends it *)
  merges : int array col;  (* raw intervals folded into the slot *)
  name : string array col;  (* compute label or MPI op *)
  kind : int array col;
  wait : Float.Array.t col;  (* 0 for compute *)
  first_dep : int array col;
  first_dest : int array col;
  (* collectives *)
  coll_arrive : Float.Array.t col;
  coll_start : Float.Array.t col;
  coll_last : int array col;
  (* dependences: one row per matched send of a recorded MPI interval.
     The cap can only stop recording for good, so the timeline's
     messages are exactly the first rows. *)
  dep_peer : int array col;
  dep_send : Float.Array.t col;
  dep_arrival : Float.Array.t col;
  dep_tag : int array col;
  dep_bytes : int array col;
  dep_slot : int array col;  (* the receiving interval *)
  (* destinations of the sends MPI intervals posted *)
  dest : int array col;
}

let columns () =
  {
    rank = col ();
    vertex = col ();
    start = col ();
    stop = col ();
    merges = col ();
    name = col ();
    kind = col ();
    wait = col ();
    first_dep = col ();
    first_dest = col ();
    coll_arrive = col ();
    coll_start = col ();
    coll_last = col ();
    dep_peer = col ();
    dep_send = col ();
    dep_arrival = col ();
    dep_tag = col ();
    dep_bytes = col ();
    dep_slot = col ();
    dest = col ();
  }

type recorder = {
  r_cfg : config;
  r_resolver : Index.Resolver.t;  (* per run: see Index.Resolver *)
  r_nprocs : int;
  r_cols : columns;
  mutable r_count : int;  (* recorded intervals + messages *)
  mutable r_messages : int;  (* dependence rows recorded as messages *)
  r_last : int array;  (* per rank, its newest slot (the merge target) *)
  r_blocked : float array;
  r_dropped : int array;
  mutable r_merged : int;
  mutable r_elapsed : float;
}

let create ?(config = default_config) ~index ~nprocs () =
  {
    r_cfg = config;
    r_resolver = Index.Resolver.create index;
    r_nprocs = nprocs;
    r_cols = columns ();
    r_count = 0;
    r_messages = 0;
    r_last = Array.make nprocs (-1);
    r_blocked = Array.make nprocs 0.0;
    r_dropped = Array.make nprocs 0;
    r_merged = 0;
    r_elapsed = 0.0;
  }

let has_budget r = r.r_count < r.r_cfg.max_events

let drop r ~rank = r.r_dropped.(rank) <- r.r_dropped.(rank) + 1

let push_interval r ~rank ~vertex ~start ~stop ~name ~kind ~wait =
  let c = r.r_cols in
  r.r_count <- r.r_count + 1;
  r.r_last.(rank) <- c.rank.len;
  push_int c.rank rank;
  push_int c.vertex vertex;
  push_float c.start start;
  push_float c.stop stop;
  push_int c.merges 1;
  push_string c.name name;
  push_int c.kind kind;
  push_float c.wait wait;
  push_int c.first_dep c.dep_peer.len;
  push_int c.first_dest c.dest.len

(* Graph-guided compression: a compute interval that resolves to the
   vertex of the rank's newest (compute) interval extends it instead
   of recording a new one — the streak of a contracted loop's
   iterations becomes one slice.  Merging costs no budget. *)
let record_compute r ~rank ~vertex ~start ~stop ~label =
  let c = r.r_cols in
  let last = r.r_last.(rank) and vertex = Option.value vertex ~default:(-1) in
  if
    vertex >= 0 && last >= 0
    && int_at c.kind last = compute
    && int_at c.vertex last = vertex
  then begin
    set_float c.stop last stop;
    set_int c.merges last (int_at c.merges last + 1);
    r.r_merged <- r.r_merged + 1
  end
  else if has_budget r then
    push_interval r ~rank ~vertex ~start ~stop
      ~name:(Option.value label ~default:"comp")
      ~kind:compute ~wait:0.0
  else drop r ~rank

let resolve r (ctx : Instrument.ctx) =
  Index.Resolver.find r.r_resolver ~cctx:ctx.cctx ~callpath:ctx.callpath
    ~loc:ctx.loc

let on_interval r (ctx : Instrument.ctx) ~stop activity =
  (match activity with
  | Instrument.Compute { label; _ } ->
      let vertex = resolve r ctx in
      record_compute r ~rank:ctx.rank ~vertex ~start:ctx.time ~stop ~label
  | Instrument.Mpi_span _ -> ()  (* MPI intervals come from on_mpi_exit *));
  0.0

let append_mpi r ~rank ~vertex (info : Instrument.mpi_exit) =
  r.r_blocked.(rank) <- r.r_blocked.(rank) +. info.wait_seconds;
  if r.r_elapsed < info.exit_time then r.r_elapsed <- info.exit_time;
  if has_budget r then begin
    let c = r.r_cols in
    let slot = c.rank.len in
    let kind =
      match info.collective with
      | None -> p2p
      | Some k ->
          push_float c.coll_arrive k.arrive_time;
          push_float c.coll_start k.start_time;
          push_int c.coll_last k.last_arrival_rank;
          c.coll_last.len - 1
    in
    push_interval r ~rank
      ~vertex:(Option.value vertex ~default:(-1))
      ~start:info.enter_time ~stop:info.exit_time
      ~name:(Scalana_mlang.Ast.mpi_name info.call)
      ~kind ~wait:info.wait_seconds;
    List.iter
      (fun (d : Instrument.peer_dep) ->
        push_int c.dep_peer d.peer_rank;
        push_float c.dep_send d.send_time;
        push_float c.dep_arrival d.arrival_time;
        push_int c.dep_tag d.dep_tag;
        push_int c.dep_bytes d.dep_bytes;
        push_int c.dep_slot slot)
      info.deps;
    List.iter (fun (dst, _, _) -> push_int c.dest dst) info.sends;
    (* one message per dependence row while the cap allows *)
    List.iter
      (fun _ ->
        if has_budget r then begin
          r.r_count <- r.r_count + 1;
          r.r_messages <- r.r_messages + 1
        end
        else drop r ~rank)
      info.deps
  end
  else begin
    drop r ~rank;
    List.iter (fun _ -> drop r ~rank) info.deps
  end

let on_mpi_exit r (ctx : Instrument.ctx) (info : Instrument.mpi_exit) =
  append_mpi r ~rank:ctx.rank ~vertex:(resolve r ctx) info;
  0.0

let tool r =
  {
    (Instrument.nil "timeline") with
    Instrument.on_interval = (fun ctx ~stop a -> on_interval r ctx ~stop a);
    on_mpi_exit = (fun ctx info -> on_mpi_exit r ctx info);
    on_run_end =
      (fun ~nprocs:_ ~elapsed ->
        if r.r_elapsed < elapsed then r.r_elapsed <- elapsed);
  }

(* --- capture --- *)

type t = {
  nprocs : int;
  elapsed : float;
  blocked : float array;
  dropped : int array;
  merged : int;
  cols : columns;  (* the recorder's, uncopied *)
  order : int array;  (* position -> slot, rank by rank *)
  first : int array;  (* rank -> its first position *)
  messages : int array;  (* message position -> dependence row *)
  n_deps : int;  (* column lengths at capture *)
  n_dests : int;
}

(* (send time, src, dst, tag) order of two dependence rows;
   [Float.compare] orders floats as the polymorphic [compare] does.
   [capture] sorts with [Array.stable_sort], a merge sort, which does
   about half the comparisons of the heap sort behind [Array.sort]. *)
let compare_messages c a b =
  match Float.compare (float_at c.dep_send a) (float_at c.dep_send b) with
  | 0 -> (
      match Int.compare (int_at c.dep_peer a) (int_at c.dep_peer b) with
      | 0 -> (
          match
            Int.compare
              (int_at c.rank (int_at c.dep_slot a))
              (int_at c.rank (int_at c.dep_slot b))
          with
          | 0 -> Int.compare (int_at c.dep_tag a) (int_at c.dep_tag b)
          | x -> x)
      | x -> x)
  | x -> x

let capture r =
  let c = r.r_cols and nprocs = r.r_nprocs in
  let n = c.rank.len in
  (* rank by rank, a counting sort: each rank keeps its recording order *)
  let first = Array.make (nprocs + 1) 0 in
  for s = 0 to n - 1 do
    let k = int_at c.rank s + 1 in
    first.(k) <- first.(k) + 1
  done;
  for k = 1 to nprocs do
    first.(k) <- first.(k) + first.(k - 1)
  done;
  let next = Array.sub first 0 nprocs in
  let order = Array.make n 0 in
  for s = 0 to n - 1 do
    let k = int_at c.rank s in
    order.(next.(k)) <- s;
    next.(k) <- next.(k) + 1
  done;
  (* newest first before the stable sort, so equal messages keep that
     order *)
  let m = r.r_messages in
  let messages = Array.init m (fun i -> m - 1 - i) in
  Array.stable_sort (compare_messages c) messages;
  {
    nprocs;
    elapsed = r.r_elapsed;
    blocked = Array.copy r.r_blocked;
    dropped = Array.copy r.r_dropped;
    merged = r.r_merged;
    cols = c;
    order;
    first;
    messages;
    n_deps = c.dep_peer.len;
    n_dests = c.dest.len;
  }

(* --- accessors --- *)

let nprocs t = t.nprocs
let elapsed t = t.elapsed
let blocked t rank = t.blocked.(rank)
let dropped t rank = t.dropped.(rank)
let total_dropped t = Array.fold_left ( + ) 0 t.dropped
let merged t = t.merged
let n_intervals t = Array.length t.order
let rank_first t rank = t.first.(rank)
let slot t i = t.order.(i)
let rank t i = int_at t.cols.rank (slot t i)

let vertex_of t s =
  match int_at t.cols.vertex s with -1 -> None | v -> Some v

let vertex t i = vertex_of t (slot t i)
let start t i = float_at t.cols.start (slot t i)
let stop t i = float_at t.cols.stop (slot t i)
let merges t i = int_at t.cols.merges (slot t i)
let is_mpi t i = int_at t.cols.kind (slot t i) <> compute
let name t i = string_at t.cols.name (slot t i)
let wait t i = float_at t.cols.wait (slot t i)

(* Rows [lo, hi) of slot [s] in a side column whose offsets are
   [first] and whose length at capture was [total]. *)
let row_end t first ~total s =
  if s + 1 < Array.length t.order then int_at first (s + 1) else total

let n_deps t i =
  let s = slot t i in
  row_end t t.cols.first_dep ~total:t.n_deps s - int_at t.cols.first_dep s

let dep t i j =
  if j < 0 || j >= n_deps t i then invalid_arg "Timeline.dep";
  let d = int_at t.cols.first_dep (slot t i) + j in
  ( int_at t.cols.dep_peer d,
    float_at t.cols.dep_send d,
    float_at t.cols.dep_arrival d )

let send_dests t i =
  let s = slot t i in
  let lo = int_at t.cols.first_dest s in
  List.init
    (row_end t t.cols.first_dest ~total:t.n_dests s - lo)
    (fun j -> int_at t.cols.dest (lo + j))

let coll t i =
  match int_at t.cols.kind (slot t i) with
  | k when k >= 0 ->
      Some
        ( float_at t.cols.coll_arrive k,
          float_at t.cols.coll_start k,
          int_at t.cols.coll_last k )
  | _ -> None

let n_messages t = Array.length t.messages
let row t m = t.messages.(m)
let msg_src t m = int_at t.cols.dep_peer (row t m)
let receiver t m = int_at t.cols.dep_slot (row t m)
let msg_dst t m = int_at t.cols.rank (receiver t m)
let msg_send_time t m = float_at t.cols.dep_send (row t m)
let msg_recv_enter t m = float_at t.cols.start (receiver t m)
let msg_arrival t m = float_at t.cols.dep_arrival (row t m)
let msg_tag t m = int_at t.cols.dep_tag (row t m)
let msg_bytes t m = int_at t.cols.dep_bytes (row t m)
let msg_vertex t m = vertex_of t (receiver t m)

(* --- Chrome trace_event export --- *)

(* The rank tracks live in their own process group (pid 2; the pipeline
   trace of Scalana_obs uses pid 1), so a merged Perfetto load shows
   "analysis domains" and "application ranks" side by side. *)
let pid = 2.0

let us t = t *. 1e6

let vertex_label psg vid =
  match psg with
  | None -> None
  | Some psg -> (
      match Psg.vertex_opt psg vid with
      | Some v -> Some (Vertex.label v)
      | None -> None)

let to_trace_json ?psg t =
  let module J = Obs.Json in
  let meta =
    J.Obj
      [
        ("name", J.Str "process_name");
        ("ph", J.Str "M");
        ("pid", J.Num pid);
        ("args", J.Obj [ ("name", J.Str "application ranks") ]);
      ]
    :: List.init t.nprocs (fun rank ->
           J.Obj
             [
               ("name", J.Str "thread_name");
               ("ph", J.Str "M");
               ("pid", J.Num pid);
               ("tid", J.Num (float_of_int rank));
               ( "args",
                 J.Obj [ ("name", J.Str (Printf.sprintf "rank %d" rank)) ] );
             ])
  in
  let slice i =
    let extra =
      if is_mpi t i then
        [ ("wait", J.Str (Printf.sprintf "%.9f" (wait t i))) ]
      else []
    in
    let vertex_args =
      match vertex t i with
      | None -> []
      | Some vid -> (
          ("vertex", J.Str (string_of_int vid))
          ::
          (match vertex_label psg vid with
          | Some l -> [ ("vertex_label", J.Str l) ]
          | None -> []))
    in
    let merged_args =
      if merges t i > 1 then
        [ ("merged", J.Str (string_of_int (merges t i))) ]
      else []
    in
    J.Obj
      [
        ("name", J.Str (name t i));
        ("cat", J.Str "scalana.app");
        ("ph", J.Str "X");
        ("ts", J.Num (us (start t i)));
        ("dur", J.Num (us (stop t i -. start t i)));
        ("pid", J.Num pid);
        ("tid", J.Num (float_of_int (rank t i)));
        ("args", J.Obj (vertex_args @ merged_args @ extra));
      ]
  in
  let flow m =
    (* one arrow per matched message; ids come from the process-global
       allocator shared with the pipeline-trace exporter *)
    let id = float_of_int (Obs.Flow.next_id ()) in
    let point ~ph ~tid ~ts extra =
      J.Obj
        ([
           ("name", J.Str "msg");
           ("cat", J.Str "scalana.flow");
           ("ph", J.Str ph);
           ("id", J.Num id);
           ("ts", J.Num (us ts));
           ("pid", J.Num pid);
           ("tid", J.Num (float_of_int tid));
         ]
        @ extra)
    in
    [
      point ~ph:"s" ~tid:(msg_src t m) ~ts:(msg_send_time t m)
        [
          ("args",
           J.Obj
             [
               ("tag", J.Str (string_of_int (msg_tag t m)));
               ("bytes", J.Str (string_of_int (msg_bytes t m)));
             ]);
        ];
      point ~ph:"f" ~tid:(msg_dst t m) ~ts:(msg_arrival t m)
        [ ("bp", J.Str "e") ];
    ]
  in
  let truncation =
    List.concat
      (List.init t.nprocs (fun rank ->
           if t.dropped.(rank) = 0 then []
           else
             [
               J.Obj
                 [
                   ("name", J.Str "truncated");
                   ("cat", J.Str "scalana.app");
                   ("ph", J.Str "i");
                   ("s", J.Str "t");
                   ("ts", J.Num (us t.elapsed));
                   ("pid", J.Num pid);
                   ("tid", J.Num (float_of_int rank));
                   ( "args",
                     J.Obj
                       [
                         ( "dropped_events",
                           J.Str (string_of_int t.dropped.(rank)) );
                       ] );
                 ];
             ]))
  in
  let slices = List.init (n_intervals t) slice in
  let flows = List.concat (List.init (n_messages t) flow) in
  J.Obj
    [
      ("traceEvents", J.Arr (meta @ slices @ flows @ truncation));
      ("displayTimeUnit", J.Str "ms");
    ]

let export_trace ?psg ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string (to_trace_json ?psg t));
      output_char oc '\n')
