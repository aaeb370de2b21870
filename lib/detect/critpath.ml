(* Critical-path analysis over a full trace — the extension the paper's
   related work points at (Chen & Clapp's critical-path candidates).

   The trace is a DAG: events of one rank are ordered sequentially, and
   each receive-like event depends on its matched sends.  The critical
   path is the longest dependence chain ending at the last event; time a
   location contributes to that chain (excluding waiting, which is slack
   by definition) indicates where optimization shortens the run.

   ScalAna's backtracking answers "who caused this wait"; critical-path
   analysis answers "which code bounds the total runtime" — the two
   agree on the planted pathologies, which the test suite checks. *)

open Scalana_mlang
open Scalana_baselines

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

(* Reconstruct per-rank event sequences (events arrive per rank in
   chronological logging order). *)
let per_rank_events events =
  let tbl : (int, Tracer.event list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ev : Tracer.event) ->
      match Hashtbl.find_opt tbl ev.ev_rank with
      | Some l -> l := ev :: !l
      | None -> Hashtbl.add tbl ev.ev_rank (ref [ ev ]))
    events;
  Hashtbl.fold (fun rank l acc -> (rank, List.rev !l) :: acc) tbl []

let label_of (ev : Tracer.event) =
  match ev.ev_kind with
  | Tracer.Comp_region { label = Some l } -> l
  | Tracer.Comp_region { label = None } -> "comp"
  | Tracer.Mpi_event { name; _ } -> name

let wait_of (ev : Tracer.event) =
  match ev.ev_kind with
  | Tracer.Mpi_event { wait; _ } -> wait
  | Tracer.Comp_region _ -> 0.0

(* The smallest wait treated as a binding remote dependence. *)
let hop_epsilon = 1e-4

(* Walk backwards from the event finishing last: at a receive-like event
   that waited, the chain crosses to the sender (the matched peer active
   at that moment); otherwise it continues to the rank's previous event.
   Peers are identified by (rank, location); we jump to the peer's last
   event at that location finishing before our end time. *)
let analyze (events : Tracer.event list) =
  let by_rank = per_rank_events events in
  let arr_of rank = List.assoc_opt rank by_rank in
  let last_event =
    List.fold_left
      (fun best (ev : Tracer.event) ->
        match best with
        | None -> Some ev
        | Some b ->
            if ev.ev_time +. ev.ev_duration > b.Tracer.ev_time +. b.ev_duration
            then Some ev
            else best)
      None events
  in
  match last_event with
  | None -> { total = 0.0; segments = []; by_location = [] }
  | Some final ->
      let segments = ref [] in
      let budget = ref 200_000 in
      let visited : (int * float, unit) Hashtbl.t = Hashtbl.create 1024 in
      let rec walk ?prev rank (before : float) =
        decr budget;
        if !budget <= 0 then ()
        else
          match arr_of rank with
          | None -> ()
          | Some evs -> (
              (* latest event of [rank] ending at or before [before],
                 excluding the event we just came from (zero-duration
                 events would otherwise loop) *)
              let ev =
                List.fold_left
                  (fun best (e : Tracer.event) ->
                    let fin = e.ev_time +. e.ev_duration in
                    if
                      fin <= before +. 1e-12
                      && (match prev with Some p -> p != e | None -> true)
                    then
                      match best with
                      | None -> Some e
                      | Some b ->
                          if fin > b.Tracer.ev_time +. b.ev_duration then Some e
                          else best
                    else best)
                  None evs
              in
              match ev with
              | None -> ()
              | Some ev when Hashtbl.mem visited (rank, ev.ev_time) -> ()
              | Some ev ->
                  Hashtbl.replace visited (rank, ev.ev_time) ();
                  let wait = wait_of ev in
                  let own = Float.max 0.0 (ev.ev_duration -. wait) in
                  if own > 0.0 then
                    segments :=
                      {
                        seg_loc = ev.ev_loc;
                        seg_rank = rank;
                        seg_label = label_of ev;
                        seg_seconds = own;
                      }
                      :: !segments;
                  ignore wait;
                  (match ev.ev_kind with
                  | Tracer.Mpi_event { wait; peers = (peer, _) :: _; _ }
                    when wait > hop_epsilon ->
                      (* the wait was bounded by the peer's progress *)
                      walk ~prev:ev peer (ev.ev_time +. ev.ev_duration)
                  | Tracer.Mpi_event
                      { wait; collective = true; last_arrival_rank = Some late; _ }
                    when wait > hop_epsilon && late <> rank ->
                      walk ~prev:ev late (ev.ev_time +. ev.ev_duration)
                  | _ ->
                      (* no binding remote dependence: the chain continues
                         with whatever this rank did before this event *)
                      walk ~prev:ev rank
                        (ev.ev_time +. Float.min ev.ev_duration 1e-12)))
      in
      walk final.ev_rank (final.ev_time +. final.ev_duration +. 1e-9);
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

let pp ppf t =
  Fmt.pf ppf "critical path: %.4fs over %d segments@." t.total
    (List.length t.segments);
  List.iter
    (fun (loc, s) -> Fmt.pf ppf "  %-40s %8.4fs@." loc s)
    (top ~n:8 t)
