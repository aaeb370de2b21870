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
   the profile's own p2p records.  [build] adds only what the profile
   does not index: the touched-vertex list, the (rank, vertex) ->
   incoming-edges index, the collective late-rank table and the
   whole-run total.  Nothing copies a row or an edge, so the profile
   must not be written once its PPG exists. *)

open Scalana_psg
open Scalana_profile

type t = {
  psg : Psg.t;  (* contracted PSG, shared by all ranks *)
  nprocs : int;
  data : Profdata.t;  (* read in place, never written *)
  vids : int array;  (* touched vertices, ascending *)
  total_time : float;  (* precomputed quarantine-aware whole-run total *)
  (* incoming communication dependence per (recv rank, recv vertex) *)
  incoming : (int * int, Commrec.p2p_edge list) Hashtbl.t;
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
  let p2p = Commrec.p2p_edges data.Profdata.comm in
  let incoming = Hashtbl.create (max 16 (List.length p2p)) in
  List.iter
    (fun (e : Commrec.p2p_edge) ->
      let k = (e.key.recv_rank, e.key.recv_vertex) in
      let existing =
        match Hashtbl.find_opt incoming k with Some l -> l | None -> []
      in
      Hashtbl.replace incoming k (e :: existing))
    p2p;
  let coll_late = Hashtbl.create 32 in
  List.iter
    (fun (r : Commrec.coll_rec) ->
      let late = Commrec.dominant_late_rank r in
      if late >= 0 then Hashtbl.replace coll_late r.coll_vertex late)
    (Commrec.coll_records data.Profdata.comm);
  let nprocs = data.Profdata.nprocs in
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
  let t = { psg; nprocs; data; vids; total_time; incoming; coll_late } in
  Scalana_obs.Obs.Metrics.incr "ppg.builds";
  Scalana_obs.Obs.Metrics.incr ~by:(Array.length vids) "ppg.vertices";
  Scalana_obs.Obs.Metrics.incr ~by:(Hashtbl.length incoming) "ppg.comm_edges";
  t

let incoming_edges t ~rank ~vertex =
  match Hashtbl.find_opt t.incoming (rank, vertex) with
  | Some l -> l
  | None -> []

(* Edges that carried an actual wait — the ones backtracking keeps after
   pruning (Section IV-B). *)
let waiting_edges t ~rank ~vertex =
  List.filter
    (fun (e : Commrec.p2p_edge) -> e.has_wait)
    (incoming_edges t ~rank ~vertex)

(* The most critical incoming edge: largest observed wait. *)
let critical_edge t ~rank ~vertex =
  match waiting_edges t ~rank ~vertex with
  | [] -> None
  | l ->
      Some
        (List.fold_left
           (fun (best : Commrec.p2p_edge) (e : Commrec.p2p_edge) ->
             if e.max_wait > best.max_wait then e else best)
           (List.hd l) l)

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

let n_comm_edges t = Hashtbl.length t.incoming

(* Bytes the PPG owns beyond its profile: the touched-vertex array, the
   edge index (per key a bucket and its (rank, vertex) tuple, per edge a
   list cell pointing at the profile's record) and the late-rank table.
   The memory bench cross-checks the total against a GC live-words
   delta. *)
let storage_bytes t =
  (8 * Array.length t.vids)
  + Hashtbl.fold (fun _ l acc -> acc + 56 + (24 * List.length l)) t.incoming 0
  + (24 * Hashtbl.length t.coll_late)

(* Vertices any rank reported on, sorted — the detectors' iteration
   domain. *)
let touched_vertices t = Array.to_list t.vids

(* Time-weighted mean membership of the producing session (differs from
   [nprocs] only for elastic runs). *)
let effective_nprocs t = t.data.Profdata.effective_nprocs
