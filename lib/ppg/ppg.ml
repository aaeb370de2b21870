(* Program Performance Graph (Section III-C).

   The per-process PSG is duplicated logically (every rank shares the
   contracted PSG structure, since SPMD processes share the code); the
   PPG adds per-(rank, vertex) performance data and the inter-process
   communication-dependence edges recorded at runtime.  Backtracking
   (Scalana_detect.Backtrack) walks this structure.

   The store is columnar and holds what detection reads: a vertex's time
   and sampled wait on every rank.  Each lives in a flat row-major column
   indexed by (row, rank) where a row is one touched vertex, so a
   vertex's across-rank values are one contiguous slice and the
   whole-graph scans the detectors run (aggregation, deviation
   thresholds, log-log fit batches) touch dense float arrays instead of
   chasing per-rank hash tables.  Callers read rows in place through
   [row_offset] and the column accessors; nothing copies a row out.
   [build] fills the columns in a single pass over the profile and keeps
   no reference to the boxed [Profdata] vectors, which stay the record
   of every other counter (samples, calls, PMU).  Cells no rank reported
   stay 0.0 (the historical absent-cell value) and poisoned cells keep
   their NaN/negative payloads bit-for-bit; per-row reporting counts
   give coverage. *)

open Scalana_psg
open Scalana_profile

type comm_edge = {
  send_rank : int;
  send_vertex : int;
  has_wait : bool;
  max_wait : float;
  hits : int;
}

type t = {
  psg : Psg.t;  (* contracted PSG, shared by all ranks *)
  nprocs : int;
  effective_nprocs : float;  (* copied from the profile at build time *)
  (* columnar store: rows are touched vertices in ascending id order,
     cell (row, rank) lives at [row * nprocs + rank] in both columns *)
  vids : int array;  (* row -> vertex id, sorted *)
  rows : (int, int) Hashtbl.t;  (* vertex id -> row *)
  times : float array;
  waits : float array;
  row_present : int array;  (* row -> number of reporting ranks *)
  total_time : float;  (* precomputed quarantine-aware whole-run total *)
  (* incoming communication dependence per (recv rank, recv vertex) *)
  incoming : (int * int, comm_edge list) Hashtbl.t;
  (* collective vertex -> dominant last-arrival rank *)
  coll_late : (int, int) Hashtbl.t;
}

let row t ~vertex = Hashtbl.find_opt t.rows vertex

(* Element offset of [vertex]'s row in every column ([nprocs] wide). *)
let row_offset t ~vertex =
  match row t ~vertex with Some r -> Some (r * t.nprocs) | None -> None

let times_col t = t.times

let build ~(psg : Psg.t) (data : Profdata.t) =
  Scalana_obs.Obs.with_span
    ~args:[ ("nprocs", string_of_int data.Profdata.nprocs) ]
    "ppg.build"
  @@ fun () ->
  let p2p = Commrec.p2p_edges data.Profdata.comm in
  let incoming = Hashtbl.create (max 16 (List.length p2p)) in
  List.iter
    (fun (e : Commrec.p2p_edge) ->
      let k = (e.key.recv_rank, e.key.recv_vertex) in
      let edge =
        {
          send_rank = e.key.send_rank;
          send_vertex = e.key.send_vertex;
          has_wait = e.has_wait;
          max_wait = e.max_wait;
          hits = e.hits;
        }
      in
      let existing =
        match Hashtbl.find_opt incoming k with Some l -> l | None -> []
      in
      Hashtbl.replace incoming k (edge :: existing))
    p2p;
  let coll_late = Hashtbl.create 32 in
  List.iter
    (fun (r : Commrec.coll_rec) ->
      let late = Commrec.dominant_late_rank r in
      if late >= 0 then Hashtbl.replace coll_late r.coll_vertex late)
    (Commrec.coll_records data.Profdata.comm);
  let touched = Profdata.touched_vertices data in
  let nprocs = data.Profdata.nprocs in
  let vids = Array.of_list touched in
  let nrows = Array.length vids in
  let rows = Hashtbl.create (max 16 nrows) in
  Array.iteri (fun r vid -> Hashtbl.replace rows vid r) vids;
  let cells = nrows * nprocs in
  let times = Array.make cells 0.0 in
  let waits = Array.make cells 0.0 in
  let row_present = Array.make nrows 0 in
  (* the single ingest pass: every (rank, vertex) vector lands in its
     cell once, so table iteration order cannot matter *)
  Profdata.iter_cells data (fun ~rank ~vertex (v : Perfvec.t) ->
      match Hashtbl.find_opt rows vertex with
      | None -> ()
      | Some r ->
          let i = (r * nprocs) + rank in
          times.(i) <- v.Perfvec.time;
          waits.(i) <- v.Perfvec.wait;
          row_present.(r) <- row_present.(r) + 1);
  (* the whole-run total keeps the boxed store's exact summation order
     (per-rank table fold, then across ranks), so reports that print it
     stay byte-identical *)
  let total_time =
    Array.init nprocs (fun rank ->
        Hashtbl.fold
          (fun _ (v : Perfvec.t) acc ->
            (* poisoned (NaN/negative) values are quarantined, not summed *)
            if Float.is_nan v.time || v.time < 0.0 then acc else acc +. v.time)
          data.Profdata.vectors.(rank) 0.0)
    |> Array.fold_left ( +. ) 0.0
  in
  let t =
    {
      psg;
      nprocs;
      effective_nprocs = data.Profdata.effective_nprocs;
      vids;
      rows;
      times;
      waits;
      row_present;
      total_time;
      incoming;
      coll_late;
    }
  in
  Scalana_obs.Obs.Metrics.incr "ppg.builds";
  Scalana_obs.Obs.Metrics.incr ~by:nrows "ppg.vertices";
  Scalana_obs.Obs.Metrics.incr ~by:(Hashtbl.length incoming) "ppg.comm_edges";
  t

let incoming_edges t ~rank ~vertex =
  match Hashtbl.find_opt t.incoming (rank, vertex) with
  | Some l -> l
  | None -> []

(* Edges that carried an actual wait — the ones backtracking keeps after
   pruning (Section IV-B). *)
let waiting_edges t ~rank ~vertex =
  List.filter (fun e -> e.has_wait) (incoming_edges t ~rank ~vertex)

(* The most critical incoming edge: largest observed wait. *)
let critical_edge t ~rank ~vertex =
  match waiting_edges t ~rank ~vertex with
  | [] -> None
  | l ->
      Some
        (List.fold_left
           (fun best e -> if e.max_wait > best.max_wait then e else best)
           (List.hd l) l)

let coll_late_rank t ~vertex = Hashtbl.find_opt t.coll_late vertex

let total_wait t ~vertex =
  match row t ~vertex with
  | Some r ->
      let off = r * t.nprocs in
      let acc = ref 0.0 in
      for rank = 0 to t.nprocs - 1 do
        acc := !acc +. t.waits.(off + rank)
      done;
      !acc
  | None -> 0.0

(* Fraction of ranks reporting at [vertex] (degraded-mode coverage).
   Always finite: an all-killed vertex degrades to 0.0, never NaN. *)
let coverage t ~vertex =
  if t.nprocs = 0 then 0.0
  else
    match row t ~vertex with
    | Some r -> float_of_int t.row_present.(r) /. float_of_int t.nprocs
    | None -> 0.0

(* Total sampled time across all ranks and vertices, quarantine-aware;
   precomputed during the ingest pass. *)
let total_time t = t.total_time

let n_comm_edges t = Hashtbl.length t.incoming

(* Bytes retained by the store itself, beyond the profile it was built
   from: the columns plus the dependence tables.  Exact for the columns;
   the memory bench cross-checks the total against a GC live-words
   delta. *)
let storage_bytes t =
  (8 * (Array.length t.times + Array.length t.waits))
  + (8 * Array.length t.row_present)
  + (8 * Array.length t.vids)
  + Hashtbl.fold (fun _ l acc -> acc + (56 * List.length l)) t.incoming 0
  + (24 * Hashtbl.length t.coll_late)

(* Vertices any rank reported on, sorted — the detectors' iteration
   domain. *)
let touched_vertices t = Array.to_list t.vids

(* Time-weighted mean membership of the producing session (differs from
   [nprocs] only for elastic runs). *)
let effective_nprocs t = t.effective_nprocs
