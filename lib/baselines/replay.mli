(** Post-mortem wait-state analysis over a full trace — the automatic
    part of the Scalasca workflow: late-sender / wait-at-collective
    classification by replay. Surfaces where time is lost, without
    chaining dependences back to the originating computation. *)

open Scalana_mlang

type wait_class = Late_sender | Wait_at_collective | Self_wait

type wait_state = {
  ws_loc : Loc.t;
  ws_class : wait_class;
  mutable total_wait : float;
  mutable occurrences : int;
  mutable ranks : int list;
}

val class_name : wait_class -> string

(** All wait states above 20 µs, largest total first. *)
val analyze : Tracer.event list -> wait_state list

val report : Tracer.event list -> top:int -> wait_state list
