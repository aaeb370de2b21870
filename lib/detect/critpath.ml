(* Critical-path analysis over a rank timeline — the extension the
   paper's related work points at (Chen & Clapp's critical-path
   candidates).

   The timeline is a DAG: intervals of one rank are ordered
   sequentially, and each receive-like interval depends on its matched
   sends.  The critical path is the longest dependence chain ending at
   the last interval; time a location contributes to that chain
   (excluding waiting, which is slack by definition) indicates where
   optimization shortens the run.

   ScalAna's backtracking answers "who caused this wait"; critical-path
   analysis answers "which code bounds the total runtime" — the two
   agree on the planted pathologies, which the test suite checks. *)

open Scalana_mlang
open Scalana_psg
open Scalana_profile

type segment = {
  seg_loc : Loc.t;
  seg_rank : int;
  seg_label : string;  (* comp label or MPI name *)
  seg_seconds : float;  (* non-waiting time on the critical path *)
}

type t = {
  total : float;  (* end-to-end critical path length *)
  segments : segment list;  (* chronological *)
  by_location : (string * float) list;  (* aggregated, largest first *)
}

let label_of (iv : Timeline.interval) =
  match iv.iv_kind with
  | Timeline.Compute { label = Some l } -> l
  | Timeline.Compute { label = None } -> "comp"
  | Timeline.Mpi m -> m.op

let wait_of (iv : Timeline.interval) =
  match iv.iv_kind with Timeline.Mpi m -> m.wait | Timeline.Compute _ -> 0.0

let loc_of psg (iv : Timeline.interval) =
  match Option.bind iv.iv_vertex (Psg.vertex_opt psg) with
  | Some v -> v.Vertex.loc
  | None -> Loc.none

(* The smallest wait treated as a binding remote dependence. *)
let hop_epsilon = 1e-4

(* The timeline lays intervals out rank by rank: rank [r]'s run is
   [first.(r)] up to [first.(r + 1)]. *)
let rank_offsets (tl : Timeline.t) =
  let first = Array.make (tl.nprocs + 1) 0 in
  Array.iter
    (fun (iv : Timeline.interval) ->
      first.(iv.iv_rank + 1) <- first.(iv.iv_rank + 1) + 1)
    tl.intervals;
  for r = 1 to tl.nprocs do
    first.(r) <- first.(r) + first.(r - 1)
  done;
  first

(* Walk backwards from the interval finishing last: at a receive-like
   interval that waited, the chain crosses to the first matched sender
   (or the collective's last-arriving rank), at that peer's latest
   interval ending by our end time; otherwise it continues to the
   rank's previous interval. *)
let analyze ~psg (tl : Timeline.t) =
  let ivs = tl.intervals in
  let last =
    Array.fold_left
      (fun best (iv : Timeline.interval) ->
        match best with
        | Some (b : Timeline.interval) when iv.iv_stop <= b.iv_stop -> best
        | _ -> Some iv)
      None ivs
  in
  match last with
  | None -> { total = 0.0; segments = []; by_location = [] }
  | Some final ->
      let first = rank_offsets tl in
      (* latest interval of [rank] ending at or before [before],
         excluding the interval we just came from (zero-length
         intervals would otherwise loop) *)
      let latest ?prev rank before =
        let best = ref None in
        for i = first.(rank) to first.(rank + 1) - 1 do
          let iv = ivs.(i) in
          if
            iv.iv_stop <= before +. 1e-12
            && match prev with Some p -> p != iv | None -> true
          then
            match !best with
            | Some (b : Timeline.interval) when iv.iv_stop <= b.iv_stop -> ()
            | _ -> best := Some iv
        done;
        !best
      in
      let segments = ref [] in
      let budget = ref 200_000 in
      let visited : (int * float, unit) Hashtbl.t = Hashtbl.create 1024 in
      let rec walk ?prev rank before =
        decr budget;
        if !budget > 0 then
          match latest ?prev rank before with
          | None -> ()
          | Some iv when Hashtbl.mem visited (rank, iv.iv_start) -> ()
          | Some iv -> (
              Hashtbl.replace visited (rank, iv.iv_start) ();
              let wait = wait_of iv in
              let own = Float.max 0.0 (iv.iv_stop -. iv.iv_start -. wait) in
              if own > 0.0 then
                segments :=
                  {
                    seg_loc = loc_of psg iv;
                    seg_rank = rank;
                    seg_label = label_of iv;
                    seg_seconds = own;
                  }
                  :: !segments;
              match iv.iv_kind with
              | Timeline.Mpi { deps = (peer, _, _) :: _; _ }
                when wait > hop_epsilon ->
                  (* the wait was bounded by the peer's progress *)
                  walk ~prev:iv peer iv.iv_stop
              | Timeline.Mpi { coll = Some c; _ }
                when wait > hop_epsilon && c.coll_last_rank <> rank ->
                  walk ~prev:iv c.coll_last_rank iv.iv_stop
              | _ ->
                  (* no binding remote dependence: the chain continues
                     with whatever this rank did before this interval *)
                  walk ~prev:iv rank
                    (iv.iv_start +. Float.min (iv.iv_stop -. iv.iv_start) 1e-12))
      in
      walk final.iv_rank (final.iv_stop +. 1e-9);
      let segs = !segments in
      let agg : (string, float) Hashtbl.t = Hashtbl.create 32 in
      List.iter
        (fun s ->
          let k = Printf.sprintf "%s@%s" s.seg_label (Loc.to_string s.seg_loc) in
          Hashtbl.replace agg k
            ((try Hashtbl.find agg k with Not_found -> 0.0) +. s.seg_seconds))
        segs;
      let by_location =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      in
      {
        total = List.fold_left (fun acc s -> acc +. s.seg_seconds) 0.0 segs;
        segments = segs;
        by_location;
      }

let top ?(n = 5) t =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take n t.by_location
