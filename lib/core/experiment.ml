(* Experiment harnesses for the paper's overhead / storage / speedup
   comparisons (Table I, Fig. 10, Fig. 11, Fig. 13, and the speedup rows
   of the case studies). *)

open Scalana_mlang
open Scalana_runtime
open Scalana_baselines

type tool_kind = No_tool | Scalana_tool | Tracing_tool | Callpath_tool

let tool_name = function
  | No_tool -> "none"
  | Scalana_tool -> "ScalAna"
  | Tracing_tool -> "Scalasca-like tracing"
  | Callpath_tool -> "HPCToolkit-like profiling"

type measurement = {
  tool : tool_kind;
  nprocs : int;
  elapsed : float;
  overhead_pct : float;  (* vs the uninstrumented run *)
  storage_bytes : int;
}

(* Run [program] once per tool at [nprocs] and compare elapsed time and
   measurement-data size. *)
let tool_comparison ?(cost = Costmodel.default) (program : Ast.program)
    ~nprocs =
  let base_cfg tools = Exec.config ~nprocs ~cost ~tools () in
  let bare = Exec.run ~cfg:(base_cfg []) program in
  let base = bare.Exec.elapsed in
  let pct elapsed =
    if base > 0.0 then 100.0 *. (elapsed -. base) /. base else 0.0
  in
  let scalana =
    let r = Prof.run ~cost (Static.analyze program) ~nprocs () in
    {
      tool = Scalana_tool;
      nprocs;
      elapsed = r.Prof.result.Exec.elapsed;
      overhead_pct = pct r.Prof.result.Exec.elapsed;
      storage_bytes = Scalana_profile.Profdata.storage_bytes r.Prof.data;
    }
  in
  let tracing =
    let tr = Tracer.create () in
    let r = Exec.run ~cfg:(base_cfg [ Tracer.tool tr ]) program in
    {
      tool = Tracing_tool;
      nprocs;
      elapsed = r.Exec.elapsed;
      overhead_pct = pct r.Exec.elapsed;
      storage_bytes = Tracer.storage_bytes tr;
    }
  in
  let callpath =
    let cp = Callprof.create ~nprocs () in
    let r = Exec.run ~cfg:(base_cfg [ Callprof.tool cp ]) program in
    {
      tool = Callpath_tool;
      nprocs;
      elapsed = r.Exec.elapsed;
      overhead_pct = pct r.Exec.elapsed;
      storage_bytes = Callprof.storage_bytes cp;
    }
  in
  [ tracing; callpath; scalana ]

(* Uninstrumented elapsed time of one run. *)
let bare_elapsed ?(cost = Costmodel.default) (program : Ast.program) ~nprocs =
  (Exec.run ~cfg:(Exec.config ~nprocs ~cost ()) program).Exec.elapsed

type speedup_row = {
  sp_nprocs : int;
  base_speedup : float;
  opt_speedup : float;
  improvement_pct : float;  (* elapsed-time improvement at this scale *)
}

(* Strong-scaling speedup of the base vs optimized variant.  As in the
   paper's case studies, each variant is normalized to its own elapsed
   time at [baseline_np]; the improvement column compares elapsed times
   at each scale directly. *)
let speedup ?(cost = Costmodel.default)
    ~(make : ?optimized:bool -> unit -> Ast.program) ~baseline_np ~scales () =
  let base_prog = make () in
  let opt_prog = make ~optimized:true () in
  let tb1 = bare_elapsed ~cost base_prog ~nprocs:baseline_np in
  let to1 = bare_elapsed ~cost opt_prog ~nprocs:baseline_np in
  List.map
    (fun nprocs ->
      let tb = bare_elapsed ~cost base_prog ~nprocs in
      let to_ = bare_elapsed ~cost opt_prog ~nprocs in
      {
        sp_nprocs = nprocs;
        base_speedup = tb1 /. tb;
        opt_speedup = to1 /. to_;
        improvement_pct = (if tb > 0.0 then 100.0 *. (tb -. to_) /. tb else 0.0);
      })
    scales
