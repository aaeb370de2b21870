(** Registry of the evaluated programs (the paper's Table II roster). *)

open Scalana_mlang
open Scalana_runtime

type entry = {
  name : string;
  description : string;
  make : ?optimized:bool -> unit -> Ast.program;
  cost : Costmodel.t;  (** recommended machine model *)
  square_scales : bool;  (** BT/SP-style sqrt(np) process grids *)
  has_optimized : bool;
  elastic_plan : Elastic.plan option;
      (** membership plan of an elastic app ([None] for fixed apps);
          profiling tools run these sessions via
          {!Scalana_runtime.Elastic} epochs *)
}

val all : entry list
val names : string list

(** Extreme-scale entries (weak-scaled, np=4096+ engine smoke); kept out
    of [all] so the Table II roster and golden reports stay the paper's
    eleven programs.  [find] resolves these too. *)
val extreme : entry list

(** Elastic entries (iteration-sliced programs with membership plans);
    kept out of [all] like [extreme].  [find] resolves these too. *)
val elastic : entry list

(** Searches [all], then [extreme], then [elastic]; raises
    [Invalid_argument] for unknown names. *)
val find : string -> entry

(** Job scales within [min_np, max_np]: powers of two, or powers of four
    for square-grid programs. *)
val scales : entry -> min_np:int -> max_np:int -> int list
