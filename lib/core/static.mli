(** ScalAna-static: the compile-time step — validation, local and
    inter-procedural PSG construction, contraction and the attribution
    index — plus the Table III static-overhead measurement. *)

open Scalana_mlang
open Scalana_cfg
open Scalana_psg

type t = {
  program : Ast.program;
  locals : (string, Psg.t) Hashtbl.t;
  full : Psg.t;
  contraction : Contract.result;
  mutable index : Index.t;
  datadep : Datadep.summary;  (** def-use counts; edges live in the PSG *)
  commcost : Commcost.t;  (** symbolic communication-cost analysis *)
  stats : Stats.t;
}

(** The contracted PSG (refined in place by {!Prof.run}). *)
val psg : t -> Psg.t

(** Raises [Invalid_argument] when the program does not validate or
    [max_loop_depth] is negative.  With [pool], the per-function
    local-PSG builds run in parallel. *)
val analyze : ?max_loop_depth:int -> ?pool:Pool.t -> Ast.program -> t

(** The base "compilation": parse + validate + [passes] iterations of the
    CFG/dominance/loop analyses per function (a stand-in for a compiler's
    middle-end pipeline; default 150). *)
val base_compile : ?passes:int -> Ast.program -> unit

(** [overhead_pct program f] is [f]'s wall time as a percentage of one
    {!base_compile} of [program]: the median over 5 rounds, each timing
    a base compile and [f] back to back. *)
val overhead_pct : Ast.program -> (unit -> unit) -> float

(** {!analyze}'s cost as a percentage of the base compilation (Table
    III's Ovd%%), estimated by {!overhead_pct}. *)
val static_overhead : Ast.program -> float
