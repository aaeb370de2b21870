(* In-memory span recorder for the traced benchmark run.

   Spans are opened around calls into the library's layers from the
   benchmark's own code, so nothing inside the library changes.  The
   library's own recorder, Scalana_obs.Obs, is not used: enabling it
   turns on the library's internal spans and adds a cost section to
   every report.  One recorder covers one traced unit; spans nest
   strictly (single domain), so a span's self time is its duration
   minus its direct children's. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  cat : string;  (** ["layer"]: pipeline work; ["probe"]: extra split *)
  t0 : float;
  t1 : float;
  alloc : float;  (** bytes allocated while the span was open *)
}

type t = {
  mutable spans : span list;  (** finished, newest first *)
  mutable stack : int list;
  mutable next : int;
  counts : (string, float) Hashtbl.t;
}

let create () =
  { spans = []; stack = []; next = 0; counts = Hashtbl.create 16 }

let span t ?(cat = "layer") name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- id :: t.stack;
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      let alloc = Gc.allocated_bytes () -. a0 in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; name; cat; t0; t1; alloc } :: t.spans)
    f

(* [span] when tracing, a plain call otherwise. *)
let opt tr ?cat name f =
  match tr with Some t -> span t ?cat name f | None -> f ()

(* Counters summed over the pass, e.g. events simulated or findings. *)
let count t name v =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name) in
  Hashtbl.replace t.counts name (prev +. v)

let counted t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name)

let self_time t (s : span) =
  List.fold_left
    (fun acc (c : span) -> if c.parent = Some s.id then acc -. (c.t1 -. c.t0) else acc)
    (s.t1 -. s.t0) t.spans

let fold_by_name t ~cat f =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      if s.cat = cat then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
        Hashtbl.replace tbl s.name (prev +. f s))
    t.spans;
  tbl

(* Summed self seconds per span name within [cat]. *)
let self_by_name t ~cat = fold_by_name t ~cat (self_time t)

(* Summed allocated bytes per span name within [cat]. *)
let alloc_by_name t ~cat = fold_by_name t ~cat (fun s -> s.alloc)

(* Chrome trace_event complete events, one track per traced pass. *)
let chrome_events t ~origin ~tid =
  let module J = Scalana_obs.Obs.Json in
  List.rev_map
    (fun (s : span) ->
      J.Obj
        [
          ("name", J.Str s.name);
          ("cat", J.Str s.cat);
          ("ph", J.Str "X");
          ("ts", J.Num ((s.t0 -. origin) *. 1e6));
          ("dur", J.Num ((s.t1 -. s.t0) *. 1e6));
          ("pid", J.Num 1.0);
          ("tid", J.Num (float_of_int tid));
          ("args", J.Obj [ ("alloc_mb", J.Num (s.alloc /. 1e6)) ]);
        ])
    t.spans
