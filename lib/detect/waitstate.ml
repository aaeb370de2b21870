(* Wait-state attribution by timeline replay.

   Each blocked MPI interval is classified whole: a collective charges
   its wait to the last arriving rank (collective imbalance); a
   receive-like op whose latest matched send was posted after the op
   began charges the latest-posting peer (late sender); everything else
   — peers all posted before the op began, or a send-side block with no
   matched incoming message — is a late receiver (the blocked side
   itself arrived late, or its destinations were not draining).  The
   split is exhaustive, so attributed time can only fall short of the
   true blocked totals when the recorder's event cap dropped
   intervals — that remainder is reported as [unattributed], never
   silently reclassified. *)

open Scalana_profile

type clazz = Late_sender | Late_receiver | Collective_imbalance

let class_name = function
  | Late_sender -> "late-sender"
  | Late_receiver -> "late-receiver"
  | Collective_imbalance -> "collective-imbalance"

let all_classes = [ Late_sender; Late_receiver; Collective_imbalance ]

type entry = {
  ws_vertex : int option;
  ws_class : clazz;
  ws_time : float;
  ws_ops : int;
  ws_culprits : (int * float) list;
}

type t = {
  ws_nprocs : int;
  entries : entry list;
  class_totals : (clazz * float) list;
  rank_blocked : float array;
  rank_attributed : float array;
  unattributed : float;
  truncated : int;
}

(* Slack below which a peer's post time is not considered late. *)
let epsilon = 20.0e-6

(* Classify blocked MPI interval [i]: (class, blamed ranks).  The wait
   is split evenly across the blamed ranks in the culprit table (the
   class total is unaffected). *)
let classify tl i =
  match Timeline.coll tl i with
  | Some (_, _, last_rank) -> (Collective_imbalance, [ last_rank ])
  | None ->
      let n = Timeline.n_deps tl i in
      if n > 0 then begin
        let late_peer = ref (-1) and latest_send = ref Float.neg_infinity in
        for j = 0 to n - 1 do
          let peer, send_time, _ = Timeline.dep tl i j in
          if send_time > !latest_send then begin
            late_peer := peer;
            latest_send := send_time
          end
        done;
        if !latest_send > Timeline.start tl i +. epsilon then
          (Late_sender, [ !late_peer ])
        else (Late_receiver, [ Timeline.rank tl i ])
      end
      else
        (* send-side block: the destinations were not ready *)
        let blamed =
          match Timeline.send_dests tl i with
          | [] -> [ Timeline.rank tl i ]
          | ds -> ds
        in
        (Late_receiver, blamed)

let analyze (tl : Timeline.t) =
  let acc : (int option * clazz, float ref * int ref * (int, float) Hashtbl.t)
      Hashtbl.t =
    Hashtbl.create 32
  in
  let class_total = Hashtbl.create 4 in
  let rank_attributed = Array.make (Timeline.nprocs tl) 0.0 in
  for i = 0 to Timeline.n_intervals tl - 1 do
    let wait = Timeline.wait tl i in
    (* compute intervals wait 0 *)
    if wait > 0.0 then begin
      let cls, blamed = classify tl i in
      let vertex = Timeline.vertex tl i and rank = Timeline.rank tl i in
      let time, ops, culprits =
        match Hashtbl.find_opt acc (vertex, cls) with
        | Some cell -> cell
        | None ->
            let cell = (ref 0.0, ref 0, Hashtbl.create 4) in
            Hashtbl.replace acc (vertex, cls) cell;
            cell
      in
      time := !time +. wait;
      incr ops;
      let share = wait /. float_of_int (List.length blamed) in
      List.iter
        (fun rank ->
          let prev =
            Option.value ~default:0.0 (Hashtbl.find_opt culprits rank)
          in
          Hashtbl.replace culprits rank (prev +. share))
        blamed;
      Hashtbl.replace class_total cls
        (wait +. Option.value ~default:0.0 (Hashtbl.find_opt class_total cls));
      rank_attributed.(rank) <- rank_attributed.(rank) +. wait
    end
  done;
  let entries =
    Hashtbl.fold
      (fun (vertex, cls) (time, ops, culprits) out ->
        let ws_culprits =
          Hashtbl.fold (fun rank s l -> (rank, s) :: l) culprits []
          |> List.sort (fun (ra, sa) (rb, sb) -> compare (sb, ra) (sa, rb))
        in
        {
          ws_vertex = vertex;
          ws_class = cls;
          ws_time = !time;
          ws_ops = !ops;
          ws_culprits;
        }
        :: out)
      acc []
    (* the class is the final key: a tie on time and vertex falls back
       to the declared class order, never to hash-table order *)
    |> List.sort (fun a b ->
           compare
             (b.ws_time, a.ws_vertex, a.ws_class)
             (a.ws_time, b.ws_vertex, b.ws_class))
  in
  let class_totals =
    List.map
      (fun cls ->
        (cls, Option.value ~default:0.0 (Hashtbl.find_opt class_total cls)))
      all_classes
  in
  let rank_blocked = Array.init (Timeline.nprocs tl) (Timeline.blocked tl) in
  let blocked_sum = Array.fold_left ( +. ) 0.0 rank_blocked in
  let attributed_sum = Array.fold_left ( +. ) 0.0 rank_attributed in
  let t =
    {
      ws_nprocs = Timeline.nprocs tl;
      entries;
      class_totals;
      rank_blocked;
      rank_attributed;
      unattributed = Float.max 0.0 (blocked_sum -. attributed_sum);
      truncated = Timeline.total_dropped tl;
    }
  in
  if Scalana_obs.Obs.enabled () then
    List.iter
      (fun (cls, total) ->
        let name = class_name cls in
        let ops =
          List.fold_left
            (fun n e -> if e.ws_class = cls then n + e.ws_ops else n)
            0 entries
        in
        Scalana_obs.Obs.Metrics.incr ~by:ops ("waitstate." ^ name);
        Scalana_obs.Obs.Metrics.set_gauge
          ("waitstate." ^ name ^ "_seconds")
          total)
      t.class_totals;
  t

let attributed_fraction t =
  let blocked = Array.fold_left ( +. ) 0.0 t.rank_blocked in
  if blocked <= 0.0 then 1.0
  else Array.fold_left ( +. ) 0.0 t.rank_attributed /. blocked

let vertex_evidence t ~vertex =
  List.filter_map
    (fun e ->
      if e.ws_vertex = Some vertex && e.ws_time > 0.0 then
        Some (e.ws_class, e.ws_time)
      else None)
    t.entries
