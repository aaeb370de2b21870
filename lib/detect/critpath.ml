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
  elapsed : float;  (* the timeline's *)
  share : float;  (* total / elapsed *)
  dropped : int;  (* timeline events lost to the recorder cap *)
}

let covering tl ~total ~segments ~by_location =
  let elapsed = Timeline.elapsed tl in
  {
    total;
    segments;
    by_location;
    elapsed;
    share = (if elapsed > 0.0 then total /. elapsed else 0.0);
    dropped = Timeline.total_dropped tl;
  }

let loc_of psg tl i =
  match Option.bind (Timeline.vertex tl i) (Psg.vertex_opt psg) with
  | Some v -> v.Vertex.loc
  | None -> Loc.none

(* The smallest wait treated as a binding remote dependence. *)
let hop_epsilon = 1e-4

(* Walk backwards from the interval finishing last: at a receive-like
   interval that waited, the chain crosses to the first matched sender
   (or the collective's last-arriving rank), at that peer's latest
   interval ending by our end time; otherwise it continues to the
   rank's previous interval. *)
let analyze ~psg (tl : Timeline.t) =
  let stop = Timeline.stop tl and start = Timeline.start tl in
  let last = ref (-1) in
  for i = 0 to Timeline.n_intervals tl - 1 do
    if !last < 0 || stop i > stop !last then last := i
  done;
  match !last with
  | -1 -> covering tl ~total:0.0 ~segments:[] ~by_location:[]
  | final ->
      (* first position in [lo, hi) whose stop passes [x] ([>] when
         [strict], [>=] otherwise), [hi] if none: a rank's stops never
         decrease in capture order *)
      let rec search ~strict x lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if (if strict then stop mid > x else stop mid >= x) then
            search ~strict x lo mid
          else search ~strict x (mid + 1) hi
      in
      (* latest interval of [rank] ending at or before [before], the
         first among equal stops, excluding the interval we just came
         from (zero-length intervals would otherwise loop) *)
      let latest ?(prev = -1) rank before =
        let lo = Timeline.rank_first tl rank in
        let rec pick k =
          if k <= lo then -1
          else
            let j = search ~strict:false (stop (k - 1)) lo k in
            if j <> prev then j else if j + 1 < k then j + 1 else pick j
        in
        pick
          (search ~strict:true (before +. 1e-12) lo
             (Timeline.rank_first tl (rank + 1)))
      in
      let segments = ref [] in
      let budget = ref 200_000 in
      let visited : (int * float, unit) Hashtbl.t = Hashtbl.create 1024 in
      let rec walk ?prev rank before =
        decr budget;
        if !budget > 0 then
          match latest ?prev rank before with
          | -1 -> ()
          | i when Hashtbl.mem visited (rank, start i) -> ()
          | i -> (
              Hashtbl.replace visited (rank, start i) ();
              let wait = Timeline.wait tl i in
              let own = Float.max 0.0 (stop i -. start i -. wait) in
              if own > 0.0 then
                segments :=
                  {
                    seg_loc = loc_of psg tl i;
                    seg_rank = rank;
                    seg_label = Timeline.name tl i;
                    seg_seconds = own;
                  }
                  :: !segments;
              let hop =
                if wait <= hop_epsilon then None
                else if Timeline.n_deps tl i > 0 then
                  (* the wait was bounded by the peer's progress *)
                  let peer, _, _ = Timeline.dep tl i 0 in
                  Some peer
                else
                  match Timeline.coll tl i with
                  | Some (_, _, last_rank) when last_rank <> rank ->
                      Some last_rank
                  | _ -> None
              in
              match hop with
              | Some peer -> walk ~prev:i peer (stop i)
              | None ->
                  (* no binding remote dependence: the chain continues
                     with whatever this rank did before this interval *)
                  walk ~prev:i rank
                    (start i +. Float.min (stop i -. start i) 1e-12))
      in
      walk (Timeline.rank tl final) (stop final +. 1e-9);
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
        (* the location is the final key: equal seconds fall back to
           it, never to hash-table order *)
        |> List.sort (fun (ka, a) (kb, b) -> compare (b, ka) (a, kb))
      in
      covering tl
        ~total:(List.fold_left (fun acc s -> acc +. s.seg_seconds) 0.0 segs)
        ~segments:segs ~by_location

let top ?(n = 5) t =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take n t.by_location
