(* Discrete-event MPI runtime: interprets a MiniMPI program on [nprocs]
   simulated processes.

   Each simulated process runs as an effect-based fiber with its own local
   clock; blocking operations perform a [Block] effect and the scheduler
   resumes the process when the awaited requests or collective complete.
   Processes are scheduled lowest-clock-first, which makes wildcard
   message matching deterministic and causally plausible.  Instrumentation
   tools observe compute intervals and MPI enter/exit events and charge
   their own overhead onto the process clocks — the same interposition
   structure as PAPI sampling plus PMPI.

   The engine is built for np = 4096+ runs: programs are compiled once
   per run into an IR whose variables, parameters and request names are
   integer slots (see [Ir]); per-process state lives in flat
   struct-of-arrays so a 16k-rank run costs 16k floats per metric, not
   16k records; and a compute, let, loop or branch statement of a bare
   run allocates nothing (test_runtime holds a compute statement to 0
   words): no boxed float crosses a call on that path, and the cost
   model makes no C or closure call.  Nor does an MPI statement
   allocate a record: requests and messages are slots in [Comm]'s
   recycled columns, the wake state is int columns, and every float
   stays unboxed, so a statement that does not block allocates nothing
   and one that blocks allocates the continuation and the option
   holding it (test_runtime bounds both).  A call reuses its rank's
   returned frame of the same function, allocating one only the first
   time or when the function recurses.  Every
   float operation is sequenced exactly as the original interpreter
   sequenced it — simulated times are preserved to the last ulp, and
   the scheduler-heap tie order is untouched, so results (and the
   golden reports derived from them) are byte-identical to the
   reference engine.  Instrumentation hooks and calling-context
   maintenance are skipped entirely when no tool is attached: a bare run
   pays nothing for the observability layer.  With tools attached, a call
   moves the rank to an interned calling-context id (no call-path list
   is rebuilt), and an interval no tool will sample builds no records
   and calls no hook (see [Instrument.t.sample_gate]). *)

open Scalana_mlang
open Ir

exception Deadlock of string
exception Runtime_error of { loc : Loc.t; msg : string }

let runtime_error ~loc fmt =
  Fmt.kstr (fun msg -> raise (Runtime_error { loc; msg })) fmt

type config = {
  nprocs : int;
  params : (string * int) list;  (* overrides of the program defaults *)
  cost : Costmodel.t;
  inject : Inject.t;
  faults : Faults.armed;
  tools : Instrument.t list;
  max_events : int;
  clock0 : float;  (* absolute time the ranks start at (elastic epochs) *)
}

let config ?(params = []) ?(cost = Costmodel.default) ?(inject = Inject.empty)
    ?(faults = Faults.none) ?(tools = []) ?(max_events = 500_000_000)
    ?(clock0 = 0.0) ~nprocs () =
  if nprocs < 1 then invalid_arg "Exec.config: nprocs must be >= 1";
  if not (Float.is_finite clock0) || clock0 < 0.0 then
    invalid_arg "Exec.config: clock0 must be finite and >= 0";
  { nprocs; params; cost; inject; faults; tools; max_events; clock0 }

type result = {
  elapsed : float;  (* latest rank finish time, tool overhead included *)
  rank_finish : float array;
  comp_seconds : float array;
  mpi_seconds : float array;
  wait_seconds : float array;
  comp_pmu : Pmu.t array;
  events : int;
  messages : int;
  killed_ranks : int list;  (* ranks an injected fault terminated *)
  stranded_ranks : int list;  (* ranks left blocked by a killed peer *)
}

(* Per-function-activation frame: variable slots (inside the compiled
   env) and request slots, each the slot of a request the frame holds
   in the communicator's columns ([Comm.nil] = none). *)
type frame = { fenv : C.env; freqs : int array }

let merge_params (program : Ast.program) overrides =
  List.map
    (fun (name, default) ->
      match List.assoc_opt name overrides with
      | Some v -> (name, v)
      | None -> (name, default))
    program.params
  @ List.filter
      (fun (name, _) -> not (List.mem_assoc name program.params))
      overrides

(* --- scheduler plumbing --- *)

(* What a blocked process is waiting for, in [sched.wake_kind]:
   [wake_reqs] the first [wake_arg] requests of its [awaited] buffer;
   [wake_coll] the collective instance numbered [wake_arg]. *)
let wake_none = 0
let wake_reqs = 1
let wake_coll = 2

(* A blocked process resumes at its [resume_at], read once [Block]
   returns: a float passed through [continue] would be boxed. *)
type _ Effect.t += Block : unit Effect.t

(* status codes *)
let st_not_started = 0
let st_ready = 1
let st_running = 2
let st_blocked = 3
let st_finished = 4

(* --- calling contexts ---

   The run's context table: id 0 is the empty call path, and the child
   of (parent id, call site) is interned once, so equal ids mean equal
   call paths.  A call looks its child up in the call node's [kids]
   first and falls back to [ids] (two call nodes may share a site), so
   the steady state is one short list probe per call. *)
type contexts = {
  mutable paths : Loc.t list array;  (* id -> interned call path *)
  mutable count : int;
  ids : (int * Loc.t, int) Hashtbl.t;  (* (parent id, call site) -> id *)
}

let new_contexts () =
  { paths = Array.make 16 []; count = 1; ids = Hashtbl.create 16 }

let intern cx ~parent ~site =
  match Hashtbl.find_opt cx.ids (parent, site) with
  | Some id -> id
  | None ->
      let id = cx.count in
      if id = Array.length cx.paths then begin
        let paths = Array.make (2 * id) [] in
        Array.blit cx.paths 0 paths 0 id;
        cx.paths <- paths
      end;
      cx.paths.(id) <- cx.paths.(parent) @ [ site ];
      cx.count <- id + 1;
      Hashtbl.add cx.ids (parent, site) id;
      id

let rec cached_kid (parent : int) = function
  | [] -> -1
  | (p, kid) :: rest -> if p = parent then kid else cached_kid parent rest

let child_context cx (k : kids) ~parent ~site =
  let kid = cached_kid parent k.kids in
  if kid >= 0 then kid
  else begin
    let kid = intern cx ~parent ~site in
    k.kids <- (parent, kid) :: k.kids;
    kid
  end

(* Per-process state in struct-of-arrays layout, indexed by rank. *)
type sched = {
  cfg : config;
  cmain : cfunc;
  has_tools : bool;
  tools : Instrument.t array;
  gates : float array array;  (* each tool's sample gate, [||] = none *)
  inject_on : bool;
  comm : Comm.t;
  nprocs : int;
  clock : float array;
  blocked_since : float array;
  comp_sec : float array;
  mpi_sec : float array;
  wait_sec : float array;
  pmu_tot_ins : float array;
  pmu_tot_lst : float array;
  pmu_tot_cyc : float array;
  pmu_miss : float array;
  pmu_fp : float array;
  coll_seqs : int array;
  status : int array;
  conts : (unit, unit) Effect.Deep.continuation option array;
  resume_at : float array;
  wake_kind : int array;
  wake_arg : int array;
  awaited : int array array;  (* per rank, grown to its widest wait *)
  coll_next : int array;  (* next older rank blocked on the same collective *)
  nfuncs : int;
  spare : frame array;  (* by rank * nfuncs + cf_id, see [take_frame] *)
  cctx : int array;  (* current context id; length 0 without tools *)
  contexts : contexts;
  kill_at : float array;  (* infinity = no kill fault armed *)
  comp_scale : float array;
  speeds : float array;  (* cfg.cost.core_speed, tabulated per rank *)
  scratch : float array;  (* Costmodel.comp_cost_into's 6 output slots *)
  ready : Heap.t;
  mutable events : int;
  mutable running : int;  (* the rank [drive] last started or resumed *)
  mutable killed : int list;  (* ranks terminated by an injected fault *)
}

(* Internal: unwinds a fiber whose rank an armed fault has terminated. *)
exception Rank_killed

(* [Float.max], without its two [sign_bit] C calls when the arguments
   are ordered; equal to it on every input, NaN and signed zeros
   included.  Defined here rather than shared: a call across modules
   would box its result. *)
let[@inline] fmax x y = if y > x then y else if x > y then x else Float.max x y

(* Inlined, so [resume] is never boxed. *)
let[@inline] make_ready s rank resume =
  s.status.(rank) <- st_ready;
  s.resume_at.(rank) <- resume;
  Heap.push s.ready s.resume_at rank

let all_completed (c : Comm.t) (rs : int array) n =
  let i = ref 0 in
  while !i < n && c.Comm.r_completed.(rs.(!i)) do
    incr i
  done;
  !i = n

(* The latest completion of the first [n] requests of [rs], folded from
   [from] in array order. *)
let[@inline] latest_completion (c : Comm.t) (rs : int array) n ~from =
  let acc = ref from in
  for i = 0 to n - 1 do
    acc := fmax !acc c.Comm.r_completion.(rs.(i))
  done;
  !acc

(* Called from Comm whenever a request completes: if the owning process
   is blocked and all of its awaited requests are now complete, wake it
   at the latest completion (but no earlier than when it blocked). *)
let on_request_complete s r =
  let c = s.comm in
  let rank = c.Comm.r_waiter.(r) in
  if rank >= 0 then begin
    c.Comm.r_waiter.(r) <- -1;
    if s.status.(rank) = st_blocked && s.wake_kind.(rank) = wake_reqs then begin
      let rs = s.awaited.(rank) and n = s.wake_arg.(rank) in
      if all_completed c rs n then
        make_ready s rank
          (latest_completion c rs n ~from:s.blocked_since.(rank))
    end
  end

(* Wake the ranks blocked on [c], newest first. *)
let wake_collective s (c : Comm.coll) =
  let rank = ref c.Comm.waiters in
  while !rank >= 0 do
    let r = !rank in
    if
      s.status.(r) = st_blocked
      && s.wake_kind.(r) = wake_coll
      && s.wake_arg.(r) = c.Comm.coll_seq
    then make_ready s r c.Comm.times.finish_time;
    rank := s.coll_next.(r)
  done;
  c.Comm.waiters <- -1

(* --- interpretation --- *)

let ceval (env : C.env) ~loc e =
  try C.eval env e with Expr.Eval_error msg -> runtime_error ~loc "%s" msg

let eval_peer (env : C.env) ~loc = function
  | KPAny -> Comm.any_src
  | KPeer e -> ceval env ~loc e

let eval_tag (env : C.env) ~loc = function
  | KTAny -> Comm.any_tag
  | KTag e -> ceval env ~loc e

let ctx_at s rank ~time ~loc =
  let cctx = s.cctx.(rank) in
  { Instrument.rank; time; loc; cctx; callpath = s.contexts.paths.(cctx) }

(* Tool [i] takes an interval [start, stop) of [rank] unless its sample
   gate shows no tick inside, in which case its [on_interval] would be a
   no-op returning 0.0.  Inlined, like [first_due], so the interval's
   ends stay unboxed on the hot path. *)
let[@inline] due s i rank ~start ~stop =
  let gate = Array.unsafe_get s.gates i in
  Array.length gate = 0
  ||
  let g = gate.(rank) in
  not (start <= g && stop <= g)

(* The first tool due for the interval, or -1 when none is. *)
let[@inline] first_due s rank ~start ~stop =
  let n = Array.length s.tools in
  let i = ref 0 in
  while !i < n && not (due s !i rank ~start ~stop) do
    incr i
  done;
  if !i < n then !i else -1

(* Tool overheads are summed in tool order from 0.0, as a fold over every
   tool would: a skipped tool's term is an exact 0.0, so the floats are
   the same.  [i0] is the first due tool. *)
let interval_overhead s i0 (ctx : Instrument.ctx) ~stop act =
  let acc = ref 0.0 in
  for i = i0 to Array.length s.tools - 1 do
    if i = i0 || due s i ctx.rank ~start:ctx.time ~stop then
      acc := !acc +. s.tools.(i).Instrument.on_interval ctx ~stop act
  done;
  !acc

let mpi_exit_overhead s ctx info =
  let acc = ref 0.0 in
  for i = 0 to Array.length s.tools - 1 do
    acc := !acc +. s.tools.(i).Instrument.on_mpi_exit ctx info
  done;
  !acc

let icall_overhead s ctx ~target =
  let acc = ref 0.0 in
  for i = 0 to Array.length s.tools - 1 do
    acc := !acc +. s.tools.(i).Instrument.on_icall ctx ~target
  done;
  !acc

(* Suspend [rank] until the scheduler resumes it; returns the time it
   resumes at.  The caller has set [blocked_since], the wake state and
   the waiters, which nothing can complete before the handler runs:
   execution is single-threaded. *)
let[@inline] block s rank =
  Effect.perform Block;
  s.resume_at.(rank)

(* [rank]'s buffer of awaited requests, at least [n] long. *)
let awaited s rank n =
  if Array.length s.awaited.(rank) < n then
    s.awaited.(rank) <- Array.make (max 2 n) Comm.nil;
  s.awaited.(rank)

(* Wait until the first [n] requests of [rank]'s [awaited] buffer have
   completed, advancing the clock to the latest completion (the same
   fold the reference engine computed, in buffer order). *)
let await s rank n =
  let c = s.comm in
  let rs = s.awaited.(rank) in
  let resume =
    if all_completed c rs n then latest_completion c rs n ~from:s.clock.(rank)
    else begin
      s.blocked_since.(rank) <- s.clock.(rank);
      s.wake_kind.(rank) <- wake_reqs;
      s.wake_arg.(rank) <- n;
      for i = 0 to n - 1 do
        let r = rs.(i) in
        if not c.Comm.r_completed.(r) then c.Comm.r_waiter.(r) <- rank
      done;
      block s rank
    end
  in
  s.clock.(rank) <- fmax s.clock.(rank) resume

let await_one s rank r =
  (awaited s rank 1).(0) <- r;
  await s rank 1

let dep_of_req s r =
  let c = s.comm in
  let m = if c.Comm.r_recv.(r) then Comm.matched c r else Comm.nil in
  if m = Comm.nil then []
  else
    [
      {
        Instrument.peer_rank = c.Comm.m_src.(m);
        peer_loc = c.Comm.m_loc.(m);
        peer_cctx = c.Comm.m_cctx.(m);
        peer_callpath = s.contexts.paths.(c.Comm.m_cctx.(m));
        dep_tag = c.Comm.m_tag.(m);
        dep_bytes = c.Comm.m_bytes.(m);
        send_time = c.Comm.m_send_time.(m);
        arrival_time = c.Comm.r_completion.(r);
      };
    ]

let get_req (frame : frame) ~loc slot name =
  let r = frame.freqs.(slot) in
  if r = Comm.nil then runtime_error ~loc "wait on unposted request %S" name
  else r

(* A non-blocking request's frame slot takes a new request: the old one
   is released. *)
let hold s (frame : frame) slot r =
  let old = frame.freqs.(slot) in
  frame.freqs.(slot) <- r;
  if old <> Comm.nil then Comm.release s.comm old

let no_vars : int array = [||]
let no_reqs : int array = [||]

let new_frame rank (f : cfunc) =
  {
    fenv =
      {
        C.c_rank = rank;
        c_vars = (if f.cf_nvars = 0 then no_vars else Array.make f.cf_nvars 0);
        c_bound =
          (if f.cf_nvars = 0 then Bytes.empty else Bytes.make f.cf_nvars '\000');
      };
    freqs = (if f.cf_nreqs = 0 then no_reqs else Array.make f.cf_nreqs Comm.nil);
  }

(* A call blocks across sweeps of every rank, so a frame made per call
   outlived the minor heap.  A returned frame instead becomes its rank's
   spare for the function, taken by the rank's next call to it;
   [no_frame] marks an empty entry. *)
let no_frame =
  {
    fenv = { C.c_rank = -1; c_vars = no_vars; c_bound = Bytes.empty };
    freqs = no_reqs;
  }

let take_frame s rank (f : cfunc) =
  let i = (rank * s.nfuncs) + f.cf_id in
  let frame = s.spare.(i) in
  if frame == no_frame then new_frame rank f
  else begin
    s.spare.(i) <- no_frame;
    frame
  end

(* A returning frame releases the requests it still holds and, cleared,
   becomes the spare unless the rank keeps one for [f] already (a
   recursive call's).  A slot's old value is read only once the slot is
   bound again. *)
let return_frame s rank (f : cfunc) (frame : frame) =
  let reqs = frame.freqs in
  for i = 0 to Array.length reqs - 1 do
    if reqs.(i) <> Comm.nil then begin
      Comm.release s.comm reqs.(i);
      reqs.(i) <- Comm.nil
    end
  done;
  let i = (rank * s.nfuncs) + f.cf_id in
  if s.spare.(i) == no_frame then begin
    Bytes.fill frame.fenv.C.c_bound 0 (Bytes.length frame.fenv.C.c_bound)
      '\000';
    s.spare.(i) <- frame
  end

(* Accumulate one computation interval into the per-rank SoA state.
   Field-by-field addition in [Pmu.t] order — identical float sums to
   the reference engine's [Pmu.add].  Inlined so [seconds] stays
   unboxed: a call would box it on every compute statement. *)
let[@inline] accum_comp s rank seconds =
  s.clock.(rank) <- s.clock.(rank) +. seconds;
  s.comp_sec.(rank) <- s.comp_sec.(rank) +. seconds;
  s.pmu_tot_ins.(rank) <- s.pmu_tot_ins.(rank) +. s.scratch.(0);
  s.pmu_tot_lst.(rank) <- s.pmu_tot_lst.(rank) +. s.scratch.(1);
  s.pmu_tot_cyc.(rank) <- s.pmu_tot_cyc.(rank) +. s.scratch.(2);
  s.pmu_miss.(rank) <- s.pmu_miss.(rank) +. s.scratch.(3);
  s.pmu_fp.(rank) <- s.pmu_fp.(rank) +. s.scratch.(4)

let rec exec_block s rank frame (body : cstmt array) =
  for i = 0 to Array.length body - 1 do
    exec_stmt s rank frame (Array.unsafe_get body i)
  done

and exec_stmt s rank frame (st : cstmt) =
  let loc = st.sloc in
  s.events <- s.events + 1;
  if s.events > s.cfg.max_events then
    runtime_error ~loc "event budget exceeded (%d)" s.cfg.max_events;
  if s.clock.(rank) >= s.kill_at.(rank) then raise Rank_killed;
  match st.snode with
  | KLet { slot; value } ->
      let v = ceval frame.fenv ~loc value in
      frame.fenv.C.c_vars.(slot) <- v;
      Bytes.unsafe_set frame.fenv.C.c_bound slot '\001'
  | KComp { flops; mem; ints; locality; label } ->
      (* workload counts evaluate inside the cost model in the reference
         engine, so an Eval_error escapes unwrapped here too *)
      let fl = C.eval frame.fenv flops in
      let me = C.eval frame.fenv mem in
      let it = C.eval frame.fenv ints in
      Costmodel.comp_cost_into s.cfg.cost ~speeds:s.speeds ~rank ~flops:fl
        ~mem:me ~ints:it ~locality ~counters:s.scratch;
      let seconds = s.scratch.(5) *. s.comp_scale.(rank) in
      let seconds =
        if s.inject_on then
          seconds +. Inject.extra s.cfg.inject ~rank ~loc
        else seconds
      in
      if s.has_tools then begin
        let start = s.clock.(rank) in
        accum_comp s rank seconds;
        let stop = s.clock.(rank) in
        let i0 = first_due s rank ~start ~stop in
        if i0 >= 0 then begin
          let ctx = ctx_at s rank ~time:start ~loc in
          let pmu =
            {
              Pmu.tot_ins = s.scratch.(0);
              tot_lst_ins = s.scratch.(1);
              tot_cyc = s.scratch.(2);
              cache_miss = s.scratch.(3);
              fp_ins = s.scratch.(4);
            }
          in
          s.clock.(rank) <-
            stop
            +. interval_overhead s i0 ctx ~stop
                 (Instrument.Compute { pmu; label })
        end
      end
      else accum_comp s rank seconds
  | KLoop { slot; count; body; _ } ->
      let n = ceval frame.fenv ~loc count in
      if n > 0 then begin
        let vars = frame.fenv.C.c_vars in
        Bytes.unsafe_set frame.fenv.C.c_bound slot '\001';
        for i = 0 to n - 1 do
          Array.unsafe_set vars slot i;
          exec_block s rank frame body
        done
      end
  | KBranch { cond; then_; else_ } ->
      if ceval frame.fenv ~loc cond <> 0 then exec_block s rank frame then_
      else exec_block s rank frame else_
  | KCall { callee; args; kids } ->
      call_function s rank ~site:loc ~kids callee args frame
  | KCall_undef name ->
      runtime_error ~loc "call to undefined function %S" name
  | KIcall { selector; targets; kids } ->
      let n = Array.length targets in
      if n = 0 then runtime_error ~loc "indirect call with no targets";
      let sel = ceval frame.fenv ~loc selector in
      let idx = ((sel mod n) + n) mod n in
      let target, tf = targets.(idx) in
      if s.has_tools then begin
        let ctx = ctx_at s rank ~time:s.clock.(rank) ~loc in
        s.clock.(rank) <- s.clock.(rank) +. icall_overhead s ctx ~target
      end;
      (match tf with
      | None ->
          runtime_error ~loc "indirect call to undefined function %S" target
      | Some f -> call_function s rank ~site:loc ~kids f [||] frame)
  | KMpi { ast; op; _ } -> exec_mpi s rank frame ~loc ast op

and call_function s rank ~site ~kids (f : cfunc)
    (args : (int * C.expr) array) (caller : frame) =
  let callee_frame = take_frame s rank f in
  let nargs = Array.length args in
  for i = 0 to nargs - 1 do
    let slot, e = Array.unsafe_get args i in
    let v = ceval caller.fenv ~loc:site e in
    callee_frame.fenv.C.c_vars.(slot) <- v;
    Bytes.unsafe_set callee_frame.fenv.C.c_bound slot '\001'
  done;
  if s.has_tools then begin
    let parent = s.cctx.(rank) in
    s.cctx.(rank) <- child_context s.contexts kids ~parent ~site;
    exec_block s rank callee_frame f.cf_body;
    s.cctx.(rank) <- parent
  end
  else exec_block s rank callee_frame f.cf_body;
  return_frame s rank f callee_frame

(* MPI execution.  With a tool attached, the reference engine's sequence
   of hook calls, context records and overhead charges (the span record
   only when some tool is due for it); without one, the hook contexts,
   dependence edges, send records and collective record are never built
   (messages carry context 0 and the wait is read before any hook
   closure captures it).  Requests and messages are slots in the
   communicator's columns and the wake state is ints, so a bare
   statement allocates only when it blocks (see the header).  A blocking
   call releases its requests once the hooks have read its dependences;
   a non-blocking one's stay with the frame.  The clock/wait arithmetic
   is the same on both, with zero overheads elided when no tool is
   attached. *)
and exec_mpi s rank frame ~loc (ast : Ast.mpi_call) (op : cmpi) =
  let enter_time = s.clock.(rank) in
  let env = frame.fenv in
  let cctx = if s.has_tools then s.cctx.(rank) else 0 in
  let deps = ref [] and sends = ref [] and collective = ref None in
  let wait = ref 0.0 in
  (match op with
  | KSend { dest; tag; bytes } ->
      let dst = ceval env ~loc dest in
      let tag = ceval env ~loc tag in
      let bytes = ceval env ~loc bytes in
      let sreq =
        Comm.send s.comm ~src:rank ~dst ~tag ~bytes ~clock:s.clock ~loc ~cctx
      in
      s.clock.(rank) <- s.clock.(rank) +. Network.default.send_overhead;
      let t0 = s.clock.(rank) in
      await_one s rank sreq;
      wait := s.clock.(rank) -. t0;
      Comm.release s.comm sreq;
      if s.has_tools then sends := [ (dst, tag, bytes) ]
  | KRecv { src; tag; bytes } ->
      let src = eval_peer env ~loc src in
      let tag = eval_tag env ~loc tag in
      ignore (ceval env ~loc bytes : int);
      let req = Comm.post_recv s.comm ~rank ~src ~tag ~clock:s.clock ~loc in
      s.clock.(rank) <- s.clock.(rank) +. Network.default.recv_overhead;
      let t0 = s.clock.(rank) in
      await_one s rank req;
      wait := s.clock.(rank) -. t0;
      if s.has_tools then deps := dep_of_req s req;
      Comm.release s.comm req
  | KIsend { dest; tag; bytes; slot } ->
      let dst = ceval env ~loc dest in
      let tag = ceval env ~loc tag in
      let bytes = ceval env ~loc bytes in
      let sreq =
        Comm.send s.comm ~src:rank ~dst ~tag ~bytes ~clock:s.clock ~loc ~cctx
      in
      s.clock.(rank) <- s.clock.(rank) +. Network.default.send_overhead;
      hold s frame slot sreq;
      if s.has_tools then sends := [ (dst, tag, bytes) ]
  | KIrecv { src; tag; bytes; slot } ->
      let src = eval_peer env ~loc src in
      let tag = eval_tag env ~loc tag in
      ignore (ceval env ~loc bytes : int);
      let rreq = Comm.post_recv s.comm ~rank ~src ~tag ~clock:s.clock ~loc in
      s.clock.(rank) <- s.clock.(rank) +. Network.default.recv_overhead;
      hold s frame slot rreq
  | KWait { slot; name } ->
      let r = get_req frame ~loc slot name in
      let t0 = s.clock.(rank) in
      await_one s rank r;
      wait := s.clock.(rank) -. t0;
      if s.has_tools then deps := dep_of_req s r
  | KWaitall { slots } ->
      let n = Array.length slots in
      let rs = awaited s rank n in
      for i = 0 to n - 1 do
        let slot, name = slots.(i) in
        rs.(i) <- get_req frame ~loc slot name
      done;
      let t0 = s.clock.(rank) in
      await s rank n;
      wait := s.clock.(rank) -. t0;
      if s.has_tools then
        deps := List.concat_map (dep_of_req s) (Array.to_list (Array.sub rs 0 n))
  | KSendrecv { dest; stag; sbytes; src; rtag; rbytes } ->
      let dst = ceval env ~loc dest in
      let stag = ceval env ~loc stag in
      let sbytes = ceval env ~loc sbytes in
      let src = eval_peer env ~loc src in
      let rtag = eval_tag env ~loc rtag in
      ignore (ceval env ~loc rbytes : int);
      let sreq =
        Comm.send s.comm ~src:rank ~dst ~tag:stag ~bytes:sbytes ~clock:s.clock
          ~loc ~cctx
      in
      let rreq =
        Comm.post_recv s.comm ~rank ~src ~tag:rtag ~clock:s.clock ~loc
      in
      s.clock.(rank) <-
        s.clock.(rank) +. Network.default.send_overhead
        +. Network.default.recv_overhead;
      let t0 = s.clock.(rank) in
      let rs = awaited s rank 2 in
      rs.(0) <- sreq;
      rs.(1) <- rreq;
      await s rank 2;
      wait := s.clock.(rank) -. t0;
      if s.has_tools then begin
        sends := [ (dst, stag, sbytes) ];
        deps := dep_of_req s rreq
      end;
      Comm.release s.comm sreq;
      Comm.release s.comm rreq
  | KColl { bytes } ->
      let bytes = ceval env ~loc bytes in
      s.coll_seqs.(rank) <- s.coll_seqs.(rank) + 1;
      let arrive_time = s.clock.(rank) in
      let c =
        Comm.coll_arrive s.comm ~seq:s.coll_seqs.(rank) ~rank ~clock:s.clock
          ~kind:ast ~bytes
      in
      if c.Comm.finished then wake_collective s c;
      let resume =
        if c.Comm.finished then c.Comm.times.finish_time
        else begin
          s.blocked_since.(rank) <- arrive_time;
          s.wake_kind.(rank) <- wake_coll;
          s.wake_arg.(rank) <- c.Comm.coll_seq;
          s.coll_next.(rank) <- c.Comm.waiters;
          c.Comm.waiters <- rank;
          block s rank
        end
      in
      s.clock.(rank) <- fmax s.clock.(rank) resume;
      wait := fmax 0.0 (c.Comm.times.start_time -. arrive_time);
      if s.has_tools then
        collective :=
          Some
            {
              Instrument.coll_seq = c.Comm.coll_seq;
              arrive_time;
              start_time = c.Comm.times.start_time;
              last_arrival_rank = c.Comm.last_arrival_rank;
            });
  let exit_time = s.clock.(rank) in
  s.mpi_sec.(rank) <- s.mpi_sec.(rank) +. (exit_time -. enter_time);
  s.wait_sec.(rank) <- s.wait_sec.(rank) +. !wait;
  if s.has_tools then begin
    let wait_seconds = !wait in
    let i0 = first_due s rank ~start:enter_time ~stop:exit_time in
    let span_overhead =
      if i0 < 0 then 0.0
      else
        interval_overhead s i0
          (ctx_at s rank ~time:enter_time ~loc)
          ~stop:exit_time
          (Instrument.Mpi_span { call = ast; wait_seconds })
    in
    let exit_info =
      {
        Instrument.call = ast;
        enter_time;
        exit_time;
        wait_seconds;
        deps = !deps;
        sends = !sends;
        collective = !collective;
      }
    in
    let overhead_out =
      mpi_exit_overhead s (ctx_at s rank ~time:exit_time ~loc) exit_info
    in
    s.clock.(rank) <- s.clock.(rank) +. span_overhead +. overhead_out
  end

(* --- fibers and the scheduler loop --- *)

(* One handler serves every fiber, built once per run: only [drive]
   starts or resumes a fiber, and it sets [running] first, so the
   handler reads the rank there.  Blocking allocates only the
   continuation and the option [conts] holds it in. *)
let handler s =
  let on_block =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        s.status.(s.running) <- st_blocked;
        s.conts.(s.running) <- Some k)
  in
  {
    Effect.Deep.retc =
      (fun () ->
        let rank = s.running in
        s.status.(rank) <- st_finished;
        Array.fill s.spare (rank * s.nfuncs) s.nfuncs no_frame);
    exnc =
      (function
      (* a killed rank stops cleanly: whatever it measured so far stays,
         peers waiting on it are stranded and handled at end of run *)
      | Rank_killed ->
          s.status.(s.running) <- st_finished;
          s.killed <- s.running :: s.killed
      | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with Block -> on_block | _ -> None);
  }

(* A fiber's body: [rank] runs main. *)
let run_rank s rank =
  let f = s.cmain in
  let frame = take_frame s rank f in
  exec_block s rank frame f.cf_body;
  return_frame s rank f frame

let rec drive s ~main handler =
  let rank = Heap.pop_val s.ready in
  if rank >= 0 then begin
    s.running <- rank;
    let st = s.status.(rank) in
    if st = st_not_started then begin
      s.status.(rank) <- st_running;
      Effect.Deep.match_with main rank handler
    end
    else if st = st_ready then begin
      s.status.(rank) <- st_running;
      match s.conts.(rank) with
      | Some k ->
          s.conts.(rank) <- None;
          Effect.Deep.continue k ()
      | None -> assert false
    end;
    drive s ~main handler
  end

(* --- top-level run --- *)

(* A bare run's table: context 0 only, never grown. *)
let no_contexts = { paths = [| [] |]; count = 1; ids = Hashtbl.create 1 }

let run_body ~cfg (program : Ast.program) =
  let merged_params = merge_params program cfg.params in
  let compiled = Ir.compile ~nprocs:cfg.nprocs ~params:merged_params program in
  let cmain =
    match compiled.main with
    | Some f -> f
    | None -> raise (Ast.Unknown_function program.main)
  in
  let n = cfg.nprocs in
  let comm = Comm.create ~nprocs:n in
  let tools = Array.of_list cfg.tools in
  let has_tools = Array.length tools > 0 in
  let s =
    {
      cfg;
      cmain;
      has_tools;
      tools;
      gates = Array.map (fun t -> t.Instrument.sample_gate) tools;
      inject_on = not (Inject.is_empty cfg.inject);
      comm;
      nprocs = n;
      clock = Array.make n cfg.clock0;
      blocked_since = Array.make n cfg.clock0;
      comp_sec = Array.make n 0.0;
      mpi_sec = Array.make n 0.0;
      wait_sec = Array.make n 0.0;
      pmu_tot_ins = Array.make n 0.0;
      pmu_tot_lst = Array.make n 0.0;
      pmu_tot_cyc = Array.make n 0.0;
      pmu_miss = Array.make n 0.0;
      pmu_fp = Array.make n 0.0;
      coll_seqs = Array.make n 0;
      status = Array.make n st_not_started;
      conts = Array.make n None;
      resume_at = Array.make n 0.0;
      wake_kind = Array.make n wake_none;
      wake_arg = Array.make n 0;
      awaited = Array.make n [||];
      coll_next = Array.make n (-1);
      nfuncs = Array.length compiled.funcs;
      spare = Array.make (n * Array.length compiled.funcs) no_frame;
      cctx = Array.make (if has_tools then n else 0) 0;
      contexts = (if has_tools then new_contexts () else no_contexts);
      kill_at =
        Array.init n (fun rank ->
            match Faults.kill_time cfg.faults ~rank with
            | Some t -> t
            | None -> infinity);
      comp_scale = Array.init n (fun rank -> Faults.comp_scale cfg.faults ~rank);
      speeds = Array.init n cfg.cost.Costmodel.core_speed;
      scratch = Array.make 6 0.0;
      ready = Heap.create ~capacity:(max 16 n) ();
      events = 0;
      running = -1;
      killed = [];
    }
  in
  Comm.set_on_complete comm (on_request_complete s);
  for rank = 0 to n - 1 do
    Heap.push s.ready s.clock rank
  done;
  drive s ~main:(run_rank s) (handler s);
  let stuck = ref [] in
  for rank = n - 1 downto 0 do
    if s.status.(rank) <> st_finished then stuck := rank :: !stuck
  done;
  let stuck = List.sort_uniq compare !stuck in
  let killed_ranks = List.sort_uniq compare s.killed in
  (* a genuine deadlock is still fatal; ranks blocked on a killed peer are
     the expected degraded outcome and are reported, not raised *)
  if stuck <> [] && killed_ranks = [] then
    raise
      (Deadlock
         (Printf.sprintf "ranks {%s} blocked at end of run\n%s"
            (String.concat "," (List.map string_of_int stuck))
            (Comm.pending_summary comm)));
  let elapsed = Array.fold_left Float.max 0.0 s.clock in
  List.iter
    (fun tool -> tool.Instrument.on_run_end ~nprocs:cfg.nprocs ~elapsed)
    cfg.tools;
  {
    elapsed;
    rank_finish = s.clock;
    comp_seconds = s.comp_sec;
    mpi_seconds = s.mpi_sec;
    wait_seconds = s.wait_sec;
    comp_pmu =
      Array.init n (fun rank ->
          {
            Pmu.tot_ins = s.pmu_tot_ins.(rank);
            tot_lst_ins = s.pmu_tot_lst.(rank);
            tot_cyc = s.pmu_tot_cyc.(rank);
            cache_miss = s.pmu_miss.(rank);
            fp_ins = s.pmu_fp.(rank);
          });
    events = s.events;
    messages = comm.Comm.messages_sent;
    killed_ranks;
    stranded_ranks = stuck;
  }

(* The observable boundary of one simulated run: the span's duration is
   the wall-clock cost of simulating, while [sim_elapsed] is the
   simulated time the program itself took — the two axes Table IV's
   overhead argument compares. *)
let run ?(cfg = config ~nprocs:4 ()) (program : Ast.program) =
  let module Obs = Scalana_obs.Obs in
  if not (Obs.enabled ()) then run_body ~cfg program
  else begin
    let sp =
      Obs.start ~args:[ ("nprocs", string_of_int cfg.nprocs) ] "exec.run"
    in
    let t0 = Obs.now () in
    match run_body ~cfg program with
    | r ->
        Obs.Metrics.observe "exec.wall_seconds" (Obs.now () -. t0);
        Obs.Metrics.observe "exec.sim_elapsed" r.elapsed;
        Obs.Metrics.incr ~by:r.events "exec.events";
        Obs.Metrics.incr ~by:r.messages "exec.messages";
        Obs.finish
          ~args:
            [
              ("sim_elapsed", Printf.sprintf "%.6f" r.elapsed);
              ("events", string_of_int r.events);
              ("messages", string_of_int r.messages);
            ]
          sp;
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Obs.finish sp;
        Printexc.raise_with_backtrace e bt
  end
