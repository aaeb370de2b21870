(* Tool instrumentation interface — the simulator's PMPI.

   Performance tools (the ScalAna profiler, the tracing baseline, the
   call-path profiling baseline) plug into the runtime through this hook
   record, exactly as real tools interpose on MPI and timer interrupts.
   Every hook returns the tool's own CPU cost in seconds; the runtime adds
   it to the process clock, which is how measurement overhead becomes
   visible in the experiments. *)

open Scalana_mlang

(* [cctx] is the run's interned id of [callpath]: equal ids exactly when
   the call paths are equal, within one run.  [callpath] is the interned
   list itself, shared by every event of the context. *)
type ctx = {
  rank : int;
  time : float;  (* local clock at the start of the event *)
  loc : Loc.t;
  cctx : int;  (* calling-context id of [callpath] *)
  callpath : Loc.t list;  (* call-site locations, outermost first *)
}

type activity =
  | Compute of { pmu : Pmu.t; label : string option }
  | Mpi_span of { call : Ast.mpi_call; wait_seconds : float }

(* A matched remote send observed when a receive-like operation
   completes: the raw material of communication-dependence edges. *)
type peer_dep = {
  peer_rank : int;
  peer_loc : Loc.t;
  peer_cctx : int;  (* the sender's calling-context id *)
  peer_callpath : Loc.t list;
  dep_tag : int;
  dep_bytes : int;
  send_time : float;  (* peer-local post time *)
  arrival_time : float;  (* when the message finished transferring *)
}

type collective_info = {
  coll_seq : int;
  arrive_time : float;
  start_time : float;  (* when the last rank arrived *)
  last_arrival_rank : int;
}

type mpi_exit = {
  call : Ast.mpi_call;
  enter_time : float;
  exit_time : float;
  wait_seconds : float;
  deps : peer_dep list;
  sends : (int * int * int) list;  (* (dest, tag, bytes) posted by this op *)
  collective : collective_info option;
}

(* [sample_gate] is a sampling tool's per-rank next-tick array ([||] for
   none): [on_interval] must be a no-op returning 0.0 for an interval
   that starts and stops at or before the gate, so the runtime skips
   those calls and the records they would take. *)
type t = {
  name : string;
  sample_gate : float array;
  on_interval : ctx -> stop:float -> activity -> float;
      (* a span of process activity [ctx.time, stop) *)
  on_mpi_exit : ctx -> mpi_exit -> float;
  on_icall : ctx -> target:string -> float;
  on_run_end : nprocs:int -> elapsed:float -> unit;
}

let nil name =
  {
    name;
    sample_gate = [||];
    on_interval = (fun _ ~stop:_ _ -> 0.0);
    on_mpi_exit = (fun _ _ -> 0.0);
    on_icall = (fun _ ~target:_ -> 0.0);
    on_run_end = (fun ~nprocs:_ ~elapsed:_ -> ());
  }

(* Count sampling ticks inside [start, stop) for [rank]; ticks skipped by
   clock jumps (tool overhead) are dropped, as a real timer would.  When
   both ends are at or before [next_tick.(rank)] nothing changes and 0
   comes back: the gate contract above. *)
let ticks next_tick ~period ~rank ~start ~stop =
  if next_tick.(rank) < start then next_tick.(rank) <- start;
  let n = ref 0 in
  while next_tick.(rank) < stop do
    incr n;
    next_tick.(rank) <- next_tick.(rank) +. period
  done;
  !n
