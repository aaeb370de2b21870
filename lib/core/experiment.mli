(** Experiment harnesses for the paper's comparisons: per-tool overhead
    and storage (Table I, Fig. 10/11/13) and base-vs-optimized speedups
    (the case studies' rows). *)

open Scalana_mlang
open Scalana_runtime

type tool_kind = No_tool | Scalana_tool | Tracing_tool | Callpath_tool

val tool_name : tool_kind -> string

type measurement = {
  tool : tool_kind;
  nprocs : int;
  elapsed : float;
  overhead_pct : float;  (** vs the uninstrumented run *)
  storage_bytes : int;
}

(** One run per tool at [nprocs], plus the bare run they are compared
    against.  Returns tracing, call-path and ScalAna measurements. *)
val tool_comparison :
  ?cost:Costmodel.t -> Ast.program -> nprocs:int -> measurement list

(** Elapsed time of one uninstrumented run. *)
val bare_elapsed : ?cost:Costmodel.t -> Ast.program -> nprocs:int -> float

type speedup_row = {
  sp_nprocs : int;
  base_speedup : float;  (** vs the base variant at [baseline_np] *)
  opt_speedup : float;  (** vs the optimized variant at [baseline_np] *)
  improvement_pct : float;  (** elapsed-time gain at this scale *)
}

val speedup :
  ?cost:Costmodel.t ->
  make:(?optimized:bool -> unit -> Ast.program) ->
  baseline_np:int ->
  scales:int list ->
  unit ->
  speedup_row list
