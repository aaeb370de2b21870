(** Critical-path analysis over a full trace (the Chen & Clapp-style
    extension the paper's related work discusses): the longest dependence
    chain through per-rank event sequences and message/collective edges,
    aggregated by source location.

    Complements backtracking: backtracking explains *who caused a wait*;
    the critical path shows *which code bounds the runtime*. *)

open Scalana_mlang

type segment = {
  seg_loc : Loc.t;
  seg_rank : int;
  seg_label : string;
  seg_seconds : float;  (** non-waiting time on the chain *)
}

type t = {
  total : float;
  segments : segment list;
  by_location : (string * float) list;  (** aggregated, largest first *)
}

(** A wait above 0.1 ms is a binding remote dependence. *)
val analyze : Scalana_baselines.Tracer.event list -> t
val top : ?n:int -> t -> (string * float) list
val pp : t Fmt.t
