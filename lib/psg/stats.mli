(** PSG statistics: the columns of the paper's Table II, extended with
    the def-use dataflow counts. *)

type t = {
  program : string;
  kloc : float;
  vbc : int;  (** vertices before contraction *)
  vac : int;  (** vertices after contraction *)
  loops : int;
  branches : int;
  comps : int;
  mpis : int;
  calls : int;
  defs : int;  (** definition sites across all functions *)
  uses : int;  (** use occurrences across all functions *)
  dd_edges : int;  (** data-dependence edges in the contracted PSG *)
  preds : int;  (** vertices carrying a symbolic scaling prediction *)
}

val of_psgs :
  defs:int ->
  uses:int ->
  dd_edges:int ->
  preds:int ->
  program:string ->
  lines:int ->
  full:Psg.t ->
  contracted:Psg.t ->
  t

(** Fraction of vertices removed by contraction (paper: 68% on average). *)
val contraction_ratio : t -> float

val header : string
val row : t -> string
