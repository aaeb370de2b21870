(* Post-mortem wait-state analysis over a full trace — the automatic part
   of the Scalasca workflow (late-sender / wait-at-collective
   classification by trace replay).  It surfaces where time is lost, but
   unlike ScalAna's backtracking it does not chain dependences back to
   the originating computation. *)

open Scalana_mlang

type wait_class = Late_sender | Wait_at_collective | Self_wait

type wait_state = {
  ws_loc : Loc.t;
  ws_class : wait_class;
  mutable total_wait : float;
  mutable occurrences : int;
  mutable ranks : int list;  (* ranks observed waiting, deduped *)
}

let class_name = function
  | Late_sender -> "late-sender"
  | Wait_at_collective -> "wait-at-collective"
  | Self_wait -> "self-wait"

(* Waits at or below this many seconds are not wait states. *)
let epsilon = 20.0e-6

let analyze (events : Tracer.event list) =
  let tbl : (string * string, wait_state) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ev : Tracer.event) ->
      match ev.ev_kind with
      | Tracer.Mpi_event { wait; peers; collective; _ } when wait > epsilon ->
          let cls =
            if collective then Wait_at_collective
            else if peers <> [] then Late_sender
            else Self_wait
          in
          let key = (Loc.to_string ev.ev_loc, class_name cls) in
          let ws =
            match Hashtbl.find_opt tbl key with
            | Some ws -> ws
            | None ->
                let ws =
                  {
                    ws_loc = ev.ev_loc;
                    ws_class = cls;
                    total_wait = 0.0;
                    occurrences = 0;
                    ranks = [];
                  }
                in
                Hashtbl.add tbl key ws;
                ws
          in
          ws.total_wait <- ws.total_wait +. wait;
          ws.occurrences <- ws.occurrences + 1;
          if not (List.mem ev.ev_rank ws.ranks) then
            ws.ranks <- ev.ev_rank :: ws.ranks
      | Tracer.Mpi_event _ | Tracer.Comp_region _ -> ())
    events;
  Hashtbl.fold (fun _ ws acc -> ws :: acc) tbl []
  |> List.sort (fun a b -> compare b.total_wait a.total_wait)

let report events ~top =
  let states = analyze events in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take top states
