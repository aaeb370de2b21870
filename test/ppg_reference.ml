(* Frozen pre-columnar PPG builder, kept as the differential-test oracle.

   This is the boxed, Hashtbl-backed implementation that lib/ppg carried
   before the columnar-store rework: per-(rank, vertex) cell lookups
   against the profile, with per-vertex across-rank arrays frozen into
   caches at build time.  The equivalence suite in test_ppg.ml builds
   both this and the production PPG from the same profile and asserts
   every accessor digest matches, over the full registry at several
   scales, clean and faulted.  Do not "improve" this module: its value
   is that it does not change.  Only how it reads the profile has
   followed the profile's layout: a cell is present when its row
   reports that rank, [total_time] sums each rank's cells in
   ascending vertex order (the profile's per-rank hash tables once
   fixed that order), then the ranks in order, and the edges are read
   from the profile's columns last to first, so each (rank, vertex)
   list is in reading order, as the edge list it replaced was. *)

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
  psg : Psg.t;
  nprocs : int;
  data : Profdata.t;
  incoming : (int * int, comm_edge list) Hashtbl.t;
  coll_late : (int, int) Hashtbl.t;
  times_cache : (int, float array) Hashtbl.t;
  waits_cache : (int, float array) Hashtbl.t;
}

(* The row holding (rank, vertex), when that rank reported there. *)
let perf t ~rank ~vertex =
  match Profdata.row t.data ~vertex with
  | Some r when Profdata.reported r ~rank -> Some r
  | _ -> None

let time_of t ~rank ~vertex =
  match perf t ~rank ~vertex with
  | Some r -> r.Profdata.times.(rank)
  | None -> 0.0

let wait_of t ~rank ~vertex =
  match perf t ~rank ~vertex with
  | Some r -> r.Profdata.waits.(rank)
  | None -> 0.0

let build ~(psg : Psg.t) (data : Profdata.t) =
  let comm = data.Profdata.comm in
  let n_edges = Commrec.n_p2p comm in
  let incoming = Hashtbl.create (max 16 n_edges) in
  for e = n_edges - 1 downto 0 do
    let k = (Commrec.recv_rank comm e, Commrec.recv_vertex comm e) in
    let edge =
      {
        send_rank = Commrec.send_rank comm e;
        send_vertex = Commrec.send_vertex comm e;
        has_wait = Commrec.has_wait comm e;
        max_wait = Commrec.max_wait comm e;
        hits = Commrec.hits comm e;
      }
    in
    let existing =
      match Hashtbl.find_opt incoming k with Some l -> l | None -> []
    in
    Hashtbl.replace incoming k (edge :: existing)
  done;
  let coll_late = Hashtbl.create 32 in
  List.iter
    (fun (r : Commrec.coll_rec) ->
      let late = Commrec.dominant_late_rank r in
      if late >= 0 then Hashtbl.replace coll_late r.coll_vertex late)
    (Commrec.coll_records data.Profdata.comm);
  let touched = Profdata.touched_vertices data in
  let nprocs = data.Profdata.nprocs in
  let times_cache = Hashtbl.create (max 16 (List.length touched)) in
  let waits_cache = Hashtbl.create (max 16 (List.length touched)) in
  let t = { psg; nprocs; data; incoming; coll_late; times_cache; waits_cache } in
  List.iter
    (fun vertex ->
      Hashtbl.replace times_cache vertex
        (Array.init nprocs (fun rank -> time_of t ~rank ~vertex));
      Hashtbl.replace waits_cache vertex
        (Array.init nprocs (fun rank -> wait_of t ~rank ~vertex)))
    touched;
  t

let incoming_edges t ~rank ~vertex =
  match Hashtbl.find_opt t.incoming (rank, vertex) with
  | Some l -> l
  | None -> []

let waiting_edges t ~rank ~vertex =
  List.filter (fun e -> e.has_wait) (incoming_edges t ~rank ~vertex)

let critical_edge t ~rank ~vertex =
  match waiting_edges t ~rank ~vertex with
  | [] -> None
  | l ->
      Some
        (List.fold_left
           (fun best e -> if e.max_wait > best.max_wait then e else best)
           (List.hd l) l)

let coll_late_rank t ~vertex = Hashtbl.find_opt t.coll_late vertex

let times_across_ranks t ~vertex =
  match Hashtbl.find_opt t.times_cache vertex with
  | Some a -> a
  | None -> Array.init t.nprocs (fun rank -> time_of t ~rank ~vertex)

let waits_across_ranks t ~vertex =
  match Hashtbl.find_opt t.waits_cache vertex with
  | Some a -> a
  | None -> Array.init t.nprocs (fun rank -> wait_of t ~rank ~vertex)

let total_wait t ~vertex =
  Array.fold_left ( +. ) 0.0 (waits_across_ranks t ~vertex)

let coverage t ~vertex = Profdata.coverage t.data ~vertex

let total_time t =
  let touched = Profdata.touched_vertices t.data in
  Array.init t.nprocs (fun rank ->
      List.fold_left
        (fun acc vertex ->
          match perf t ~rank ~vertex with
          | Some r ->
              let time = r.Profdata.times.(rank) in
              if Float.is_nan time || time < 0.0 then acc else acc +. time
          | None -> acc)
        0.0 touched)
  |> Array.fold_left ( +. ) 0.0

let n_comm_edges t = Hashtbl.length t.incoming

let touched_vertices t = Profdata.touched_vertices t.data
let effective_nprocs t = t.data.Profdata.effective_nprocs
