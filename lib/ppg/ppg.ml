(* Program Performance Graph (Section III-C).

   The per-process PSG is duplicated logically (every rank shares the
   contracted PSG structure, since SPMD processes share the code); the
   PPG adds per-(rank, vertex) performance data and the inter-process
   communication-dependence edges recorded at runtime.  Backtracking
   (Scalana_detect.Backtrack) walks this structure.

   The PPG reads its profile in place: a vertex's across-rank times and
   waits are the profile's own row arrays, so the whole-graph scans the
   detectors run (aggregation, deviation thresholds, log-log fit
   batches) touch dense float arrays, and its communication edges are
   the profile's own p2p edge columns, read by index.  [build] adds only
   what the profile does not index: the touched-vertex list, the edges
   grouped by receiving rank (offsets into those columns), the
   collective late-rank table and the whole-run total.  Nothing copies a
   row or an edge, so the profile must not be written once its PPG
   exists. *)

open Scalana_psg
open Scalana_profile

type t = {
  psg : Psg.t;  (* contracted PSG, shared by all ranks *)
  nprocs : int;
  data : Profdata.t;  (* read in place, never written *)
  vids : int array;  (* touched vertices, ascending *)
  total_time : float;  (* precomputed quarantine-aware whole-run total *)
  (* rank r received edges by_rank.(rank_start.(r)) ..
     by_rank.(rank_start.(r + 1) - 1), in the profile's reading order *)
  rank_start : int array;
  by_rank : int array;
  receivers : int;  (* distinct (recv rank, recv vertex) pairs *)
  (* collective vertex -> dominant last-arrival rank *)
  coll_late : (int, int) Hashtbl.t;
}

let times t ~vertex =
  match Profdata.row t.data ~vertex with
  | Some r -> Some r.Profdata.times
  | None -> None

let build ~(psg : Psg.t) (data : Profdata.t) =
  Scalana_obs.Obs.with_span
    ~args:[ ("nprocs", string_of_int data.Profdata.nprocs) ]
    "ppg.build"
  @@ fun () ->
  let comm = data.Profdata.comm in
  let nprocs = data.Profdata.nprocs in
  let n_edges = Commrec.n_p2p comm in
  (* counting sort by receiving rank, each rank's edges in reading order *)
  let rank_start = Array.make (nprocs + 1) 0 and n_vertices = ref 0 in
  for e = 0 to n_edges - 1 do
    let r = Commrec.recv_rank comm e + 1 in
    rank_start.(r) <- rank_start.(r) + 1;
    n_vertices := Int.max !n_vertices (Commrec.recv_vertex comm e + 1)
  done;
  for r = 1 to nprocs do
    rank_start.(r) <- rank_start.(r) + rank_start.(r - 1)
  done;
  let next = Array.sub rank_start 0 nprocs in
  let by_rank = Array.make n_edges 0 in
  for e = 0 to n_edges - 1 do
    let r = Commrec.recv_rank comm e in
    by_rank.(next.(r)) <- e;
    next.(r) <- next.(r) + 1
  done;
  let receivers = ref 0 and last_rank = Array.make !n_vertices (-1) in
  for r = 0 to nprocs - 1 do
    for k = rank_start.(r) to rank_start.(r + 1) - 1 do
      let v = Commrec.recv_vertex comm by_rank.(k) in
      if last_rank.(v) <> r then begin
        last_rank.(v) <- r;
        incr receivers
      end
    done
  done;
  let coll_late = Hashtbl.create 32 in
  List.iter
    (fun (r : Commrec.coll_rec) ->
      let late = Commrec.dominant_late_rank r in
      if late >= 0 then Hashtbl.replace coll_late r.coll_vertex late)
    (Commrec.coll_records comm);
  let vids = Array.of_list (Profdata.touched_vertices data) in
  (* each rank's reported cells in ascending vertex order, then the
     ranks in order; poisoned (NaN/negative) values are quarantined, not
     summed *)
  let per_rank = Array.make nprocs 0.0 in
  Array.iter
    (fun vertex ->
      match Profdata.row data ~vertex with
      | None -> ()
      | Some r ->
          for rank = 0 to nprocs - 1 do
            let x = r.Profdata.times.(rank) in
            if Profdata.reported r ~rank && not (Float.is_nan x || x < 0.0)
            then per_rank.(rank) <- per_rank.(rank) +. x
          done)
    vids;
  let total_time = Array.fold_left ( +. ) 0.0 per_rank in
  let t =
    {
      psg;
      nprocs;
      data;
      vids;
      total_time;
      rank_start;
      by_rank;
      receivers = !receivers;
      coll_late;
    }
  in
  Scalana_obs.Obs.Metrics.incr "ppg.builds";
  Scalana_obs.Obs.Metrics.incr ~by:(Array.length vids) "ppg.vertices";
  Scalana_obs.Obs.Metrics.incr ~by:t.receivers "ppg.comm_edges";
  t

(* Rank [rank]'s received edges, as a range of [by_rank]. *)
let rank_range t ~rank =
  if rank < 0 || rank >= t.nprocs then (0, 0)
  else (t.rank_start.(rank), t.rank_start.(rank + 1))

let incoming_edges t ~rank ~vertex =
  let comm = t.data.Profdata.comm in
  let lo, hi = rank_range t ~rank in
  let acc = ref [] in
  for k = hi - 1 downto lo do
    let e = t.by_rank.(k) in
    if Commrec.recv_vertex comm e = vertex then acc := e :: !acc
  done;
  !acc

(* The most critical incoming edge: largest observed wait among the
   edges that carried an actual wait — the ones backtracking keeps after
   pruning (Section IV-B).  The first of equal waits wins. *)
let critical_edge t ~rank ~vertex =
  let comm = t.data.Profdata.comm in
  let lo, hi = rank_range t ~rank in
  let best = ref (-1) in
  for k = lo to hi - 1 do
    let e = t.by_rank.(k) in
    if
      Commrec.recv_vertex comm e = vertex
      && Commrec.has_wait comm e
      && (!best < 0 || Commrec.max_wait comm e > Commrec.max_wait comm !best)
    then best := e
  done;
  if !best < 0 then None else Some !best

let coll_late_rank t ~vertex = Hashtbl.find_opt t.coll_late vertex

let total_wait t ~vertex =
  match Profdata.row t.data ~vertex with
  | Some r ->
      let acc = ref 0.0 in
      for rank = 0 to t.nprocs - 1 do
        acc := !acc +. r.Profdata.waits.(rank)
      done;
      !acc
  | None -> 0.0

(* Fraction of ranks reporting at [vertex] (degraded-mode coverage).
   Always finite: an all-killed vertex degrades to 0.0, never NaN. *)
let coverage t ~vertex = Profdata.coverage t.data ~vertex

(* Total sampled time across all ranks and vertices, quarantine-aware;
   precomputed by [build]. *)
let total_time t = t.total_time

let n_comm_edges t = t.receivers

(* Bytes the PPG owns beyond its profile: the touched-vertex array, the
   edge grouping (a start offset per rank, an edge index per edge) and
   the late-rank table.  The memory bench cross-checks the total against
   a GC live-words delta. *)
let storage_bytes t =
  (8 * (Array.length t.vids + Array.length t.rank_start + Array.length t.by_rank))
  + (24 * Hashtbl.length t.coll_late)

(* Vertices any rank reported on, sorted — the detectors' iteration
   domain. *)
let touched_vertices t = Array.to_list t.vids

(* Time-weighted mean membership of the producing session (differs from
   [nprocs] only for elastic runs). *)
let effective_nprocs t = t.data.Profdata.effective_nprocs
