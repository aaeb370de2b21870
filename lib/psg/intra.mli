(** Intra-procedural analysis: local PSG per function. *)

open Scalana_mlang

(** Local PSGs for every function, keyed by name.  With [pool], the
    per-function builds run in parallel (each local PSG has its own id
    space); the result is identical to the sequential build. *)
val build_all :
  ?pool:Scalana_pool.Pool.t -> Ast.program -> (string, Psg.t) Hashtbl.t

(** Validate the local PSG against CFG dominance/natural-loop analyses:
    Loop vertices must match natural loops, Branch vertices must match
    conditional blocks.
    Kept: removing it would delete the tests that run it on every
    function. *)
val crosscheck : Ast.func -> (unit, string) result
