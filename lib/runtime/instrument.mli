(** Tool instrumentation interface — the simulator's PMPI.

    Performance tools plug into the runtime through this hook record;
    every hook returns the tool's own CPU cost in seconds, which the
    runtime adds to the process clock (measurement overhead becomes
    observable). *)

open Scalana_mlang

(** Calling contexts.  The runtime interns each dynamic call path once
    per run and hands tools its integer id: within one run, two contexts
    have equal ids exactly when their call paths are equal.  Ids are
    dense from 0 (the empty call path) and mean nothing across runs, so
    anything keyed by them lives for one run.  The call path itself is
    the interned list, shared by every event of the context. *)
type ctx = {
  rank : int;
  time : float;  (** local clock at the start of the event *)
  loc : Loc.t;
  cctx : int;  (** calling-context id of [callpath] *)
  callpath : Loc.t list;  (** call-site locations, outermost first *)
}

type activity =
  | Compute of { pmu : Pmu.t; label : string option }
  | Mpi_span of { call : Ast.mpi_call; wait_seconds : float }

(** A matched remote send observed when a receive-like operation
    completes — the raw material of communication-dependence edges. *)
type peer_dep = {
  peer_rank : int;
  peer_loc : Loc.t;
  peer_cctx : int;  (** the sender's calling-context id *)
  peer_callpath : Loc.t list;
  dep_tag : int;
  dep_bytes : int;
  send_time : float;  (** peer-local post time *)
  arrival_time : float;
      (** when the message finished transferring (request completion) —
          distinct from [exit_time], which also covers sibling requests
          of the same wait and any tool overhead *)
}

type collective_info = {
  coll_seq : int;
  arrive_time : float;
  start_time : float;  (** when the last rank arrived *)
  last_arrival_rank : int;
}

type mpi_exit = {
  call : Ast.mpi_call;
  enter_time : float;
  exit_time : float;
  wait_seconds : float;
  deps : peer_dep list;
  sends : (int * int * int) list;  (** (dest, tag, bytes) posted *)
  collective : collective_info option;
}

type t = {
  name : string;
  sample_gate : float array;
      (** per-rank gate of a sampling tool, [[||]] for none.  The
          contract: [on_interval] is a no-op returning [0.0] for an
          interval [\[start, stop)] with [start <= gate.(rank)] and
          [stop <= gate.(rank)] — no sample falls inside it — so the
          runtime skips the call, and the records it would take, for
          every such interval.  A tool sampling with {!ticks} passes its
          next-tick array. *)
  on_interval : ctx -> stop:float -> activity -> float;
      (** a span of process activity [ctx.time, stop) *)
  on_mpi_exit : ctx -> mpi_exit -> float;
  on_icall : ctx -> target:string -> float;
  on_run_end : nprocs:int -> elapsed:float -> unit;
}

(** A tool with no-op hooks and no gate, for [{ (nil name) with ... }]
    updates. *)
val nil : string -> t

(** [ticks next_tick ~period ~rank ~start ~stop] counts timer ticks
    inside [\[start, stop)] for [rank] and advances [next_tick.(rank)]
    past them, [period] seconds apart (a tool's [1.0 /. freq], computed
    once); ticks skipped by clock jumps (tool overhead) are dropped, as
    a real timer would.  Returns 0 and leaves [next_tick] alone whenever
    [start] and [stop] are both at or before [next_tick.(rank)], which
    is what makes [next_tick] a valid {!t.sample_gate}. *)
val ticks :
  float array -> period:float -> rank:int -> start:float -> stop:float -> int
