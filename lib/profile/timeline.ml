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
     stated as a fraction of the true blocked time. *)

open Scalana_psg
open Scalana_runtime
module Obs = Scalana_obs.Obs

type config = { max_events : int }

let default_config = { max_events = 200_000 }

type mpi_info = {
  op : string;
  wait : float;
  deps : (int * float * float) list;
  send_dests : int list;
  coll : coll_info option;
}

and coll_info = {
  coll_arrive : float;
  coll_start : float;
  coll_last_rank : int;
}

type kind = Compute of { label : string option } | Mpi of mpi_info

type interval = {
  iv_rank : int;
  iv_vertex : int option;
  mutable iv_start : float;
  mutable iv_stop : float;
  iv_kind : kind;
  mutable iv_merged : int;
}

type message = {
  msg_src : int;
  msg_dst : int;
  msg_send_time : float;
  msg_recv_enter : float;
  msg_arrival : float;
  msg_tag : int;
  msg_bytes : int;
  msg_vertex : int option;
}

type t = {
  nprocs : int;
  elapsed : float;
  intervals : interval array;
  messages : message array;
  blocked : float array;
  dropped : int array;
  merged : int;
}

(* A rank's intervals are recorded in the order its clock reaches them,
   which is (start, stop) order: its clock never runs backwards, and a
   merge only extends the newest interval.  So each rank keeps its own
   list, newest first (the head is the merge target), and [capture]
   lays the lists out in rank order without sorting. *)
type recorder = {
  r_cfg : config;
  r_resolver : Index.Resolver.t;  (* per run: see Index.Resolver *)
  r_nprocs : int;
  mutable r_count : int;  (* recorded intervals + messages *)
  r_intervals : interval list array;  (* per rank, newest first *)
  mutable r_messages : message list;
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
    r_count = 0;
    r_intervals = Array.make nprocs [];
    r_messages = [];
    r_blocked = Array.make nprocs 0.0;
    r_dropped = Array.make nprocs 0;
    r_merged = 0;
    r_elapsed = 0.0;
  }

let has_budget r = r.r_count < r.r_cfg.max_events

let drop r ~rank = r.r_dropped.(rank) <- r.r_dropped.(rank) + 1

let push_interval r iv =
  r.r_count <- r.r_count + 1;
  r.r_intervals.(iv.iv_rank) <- iv :: r.r_intervals.(iv.iv_rank)

(* Graph-guided compression: a compute interval that resolves to the
   vertex of the rank's previous (compute) interval extends it instead
   of recording a new one — the streak of a contracted loop's
   iterations becomes one slice.  Merging costs no budget. *)
let record_compute r ~rank ~vertex ~start ~stop ~label =
  match (r.r_intervals.(rank), vertex) with
  | ({ iv_kind = Compute _; iv_vertex = Some prev; _ } as last) :: _, Some v
    when prev = v ->
      last.iv_stop <- stop;
      last.iv_merged <- last.iv_merged + 1;
      r.r_merged <- r.r_merged + 1
  | _ ->
      if has_budget r then
        push_interval r
          {
            iv_rank = rank;
            iv_vertex = vertex;
            iv_start = start;
            iv_stop = stop;
            iv_kind = Compute { label };
            iv_merged = 1;
          }
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

let on_mpi_exit r (ctx : Instrument.ctx) (info : Instrument.mpi_exit) =
  let rank = ctx.rank in
  r.r_blocked.(rank) <- r.r_blocked.(rank) +. info.wait_seconds;
  if r.r_elapsed < info.exit_time then r.r_elapsed <- info.exit_time;
  let vertex = resolve r ctx in
  if has_budget r then
    push_interval r
      {
        iv_rank = rank;
        iv_vertex = vertex;
        iv_start = info.enter_time;
        iv_stop = info.exit_time;
        iv_kind =
          Mpi
            {
              op = Scalana_mlang.Ast.mpi_name info.call;
              wait = info.wait_seconds;
              deps =
                List.map
                  (fun (d : Instrument.peer_dep) ->
                    (d.peer_rank, d.send_time, d.arrival_time))
                  info.deps;
              send_dests = List.map (fun (dst, _, _) -> dst) info.sends;
              coll =
                Option.map
                  (fun (c : Instrument.collective_info) ->
                    {
                      coll_arrive = c.arrive_time;
                      coll_start = c.start_time;
                      coll_last_rank = c.last_arrival_rank;
                    })
                  info.collective;
            };
        iv_merged = 1;
      }
  else drop r ~rank;
  List.iter
    (fun (d : Instrument.peer_dep) ->
      if has_budget r then begin
        r.r_count <- r.r_count + 1;
        r.r_messages <-
          {
            msg_src = d.peer_rank;
            msg_dst = rank;
            msg_send_time = d.send_time;
            msg_recv_enter = info.enter_time;
            msg_arrival = d.arrival_time;
            msg_tag = d.dep_tag;
            msg_bytes = d.dep_bytes;
            msg_vertex = vertex;
          }
          :: r.r_messages
      end
      else drop r ~rank)
    info.deps;
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

(* (send time, src, dst, tag) order; [Float.compare] orders floats as
   the polymorphic [compare] does.  [capture] sorts with
   [Array.stable_sort], a merge sort, which does about half the
   comparisons of the heap sort behind [Array.sort]; with no two
   messages comparing equal, the two give the same array. *)
let compare_messages a b =
  match Float.compare a.msg_send_time b.msg_send_time with
  | 0 -> (
      match Int.compare a.msg_src b.msg_src with
      | 0 -> (
          match Int.compare a.msg_dst b.msg_dst with
          | 0 -> Int.compare a.msg_tag b.msg_tag
          | c -> c)
      | c -> c)
  | c -> c

(* The per-rank lists, laid out back to front: the last rank's newest
   interval goes last. *)
let capture_intervals r =
  let total = Array.fold_left (fun n l -> n + List.length l) 0 r.r_intervals in
  if total = 0 then [||]
  else begin
    let rec filler rank =
      match r.r_intervals.(rank) with iv :: _ -> iv | [] -> filler (rank + 1)
    in
    let out = Array.make total (filler 0) in
    let pos = ref total in
    for rank = r.r_nprocs - 1 downto 0 do
      List.iter
        (fun iv ->
          decr pos;
          out.(!pos) <- iv)
        r.r_intervals.(rank)
    done;
    out
  end

let capture r =
  let intervals = capture_intervals r in
  let messages = Array.of_list r.r_messages in
  Array.stable_sort compare_messages messages;
  {
    nprocs = r.r_nprocs;
    elapsed = r.r_elapsed;
    intervals;
    messages;
    blocked = Array.copy r.r_blocked;
    dropped = Array.copy r.r_dropped;
    merged = r.r_merged;
  }

let total_dropped t = Array.fold_left ( + ) 0 t.dropped

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
  let slice iv =
    let name, extra =
      match iv.iv_kind with
      | Compute { label } ->
          (Option.value label ~default:"comp", [])
      | Mpi m ->
          (m.op, [ ("wait", J.Str (Printf.sprintf "%.9f" m.wait)) ])
    in
    let vertex_args =
      match iv.iv_vertex with
      | None -> []
      | Some vid -> (
          ("vertex", J.Str (string_of_int vid))
          ::
          (match vertex_label psg vid with
          | Some l -> [ ("vertex_label", J.Str l) ]
          | None -> []))
    in
    let merged_args =
      if iv.iv_merged > 1 then
        [ ("merged", J.Str (string_of_int iv.iv_merged)) ]
      else []
    in
    J.Obj
      [
        ("name", J.Str name);
        ("cat", J.Str "scalana.app");
        ("ph", J.Str "X");
        ("ts", J.Num (us iv.iv_start));
        ("dur", J.Num (us (iv.iv_stop -. iv.iv_start)));
        ("pid", J.Num pid);
        ("tid", J.Num (float_of_int iv.iv_rank));
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
      point ~ph:"s" ~tid:m.msg_src ~ts:m.msg_send_time
        [
          ("args",
           J.Obj
             [
               ("tag", J.Str (string_of_int m.msg_tag));
               ("bytes", J.Str (string_of_int m.msg_bytes));
             ]);
        ];
      point ~ph:"f" ~tid:m.msg_dst ~ts:m.msg_arrival [ ("bp", J.Str "e") ];
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
  let slices = Array.to_list (Array.map slice t.intervals) in
  let flows = List.concat_map flow (Array.to_list t.messages) in
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
