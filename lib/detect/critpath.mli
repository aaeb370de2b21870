(** Critical-path analysis over a rank timeline (the Chen & Clapp-style
    extension the paper's related work discusses): the longest
    dependence chain through per-rank interval sequences and
    message/collective edges, aggregated by source location.

    Complements backtracking: backtracking explains *who caused a wait*;
    the critical path shows *which code bounds the runtime*. *)

open Scalana_mlang
open Scalana_psg
open Scalana_profile

type segment = {
  seg_loc : Loc.t;  (** the interval's vertex location, [Loc.none] if unresolved *)
  seg_rank : int;
  seg_label : string;
  seg_seconds : float;  (** non-waiting time on the chain *)
}

type t = {
  total : float;
  segments : segment list;
  by_location : (string * float) list;
      (** aggregated, largest first; equal seconds by location *)
  elapsed : float;  (** the timeline's elapsed time *)
  share : float;
      (** the run the chain covers: [total /. elapsed], [0.0] when
          nothing elapsed *)
  dropped : int;
      (** events the timeline lost to its recorder cap: a chain over a
          capped timeline ends where recording stopped, so it is
          partial *)
}

(** A wait above 0.1 ms is a binding remote dependence.  [psg] is the
    contracted PSG the timeline's vertices index. *)
val analyze : psg:Psg.t -> Timeline.t -> t

val top : ?n:int -> t -> (string * float) list
