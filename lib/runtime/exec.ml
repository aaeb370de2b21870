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
   model makes no C or closure call.  A call allocates its frame, and
   an MPI statement its requests, messages and wake record.  Every
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
   env) and request slots. *)
type frame = { fenv : C.env; freqs : Comm.request array }

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

(* What a blocked process is waiting for; [Wake_two] covers sendrecv
   without an array allocation. *)
type wake =
  | Wake_none
  | Wake_one of Comm.request
  | Wake_two of Comm.request * Comm.request
  | Wake_many of Comm.request array
  | Wake_coll of Comm.coll

type _ Effect.t += Block : float Effect.t

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
  conts : (float, unit) Effect.Deep.continuation option array;
  resume_at : float array;
  wakes : wake array;
  cctx : int array;  (* current context id; length 0 without tools *)
  contexts : contexts;
  kill_at : float array;  (* infinity = no kill fault armed *)
  comp_scale : float array;
  speeds : float array;  (* cfg.cost.core_speed, tabulated per rank *)
  scratch : float array;  (* Costmodel.comp_cost_into's 6 output slots *)
  ready : Heap.t;
  mutable events : int;
  mutable killed : int list;  (* ranks terminated by an injected fault *)
}

(* Internal: unwinds a fiber whose rank an armed fault has terminated. *)
exception Rank_killed

let make_ready s rank resume =
  s.status.(rank) <- st_ready;
  s.resume_at.(rank) <- resume;
  Heap.push s.ready resume rank

(* Called from Comm whenever a request completes: if the owning process
   is blocked and all of its awaited requests are now complete, wake it
   at the latest completion (but no earlier than when it blocked). *)
let on_request_complete s (req : Comm.request) =
  let rank = req.Comm.waiter in
  if rank >= 0 then begin
    req.Comm.waiter <- -1;
    if s.status.(rank) = st_blocked then
      match s.wakes.(rank) with
      | Wake_one r ->
          if r.Comm.completed then
            make_ready s rank (Float.max s.blocked_since.(rank) r.completion)
      | Wake_two (r1, r2) ->
          if r1.Comm.completed && r2.Comm.completed then
            make_ready s rank
              (Float.max
                 (Float.max s.blocked_since.(rank) r1.Comm.completion)
                 r2.Comm.completion)
      | Wake_many rs ->
          if Array.for_all (fun (r : Comm.request) -> r.completed) rs then
            make_ready s rank
              (Array.fold_left
                 (fun acc (r : Comm.request) -> Float.max acc r.completion)
                 s.blocked_since.(rank) rs)
      | Wake_coll _ | Wake_none -> ()
  end

let wake_collective s (c : Comm.coll) =
  List.iter
    (fun rank ->
      if s.status.(rank) = st_blocked then
        match s.wakes.(rank) with
        | Wake_coll c' when c'.Comm.coll_seq = c.Comm.coll_seq ->
            make_ready s rank c.Comm.finish_time
        | _ -> ())
    c.Comm.waiters;
  c.Comm.waiters <- []

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

(* Wait until [r] has completed, advancing the clock to the completion
   (each await computes the same fold the reference engine did). *)
let await_one s rank (r : Comm.request) =
  let resume =
    if r.Comm.completed then Float.max s.clock.(rank) r.Comm.completion
    else begin
      s.blocked_since.(rank) <- s.clock.(rank);
      s.wakes.(rank) <- Wake_one r;
      Effect.perform Block
    end
  in
  s.clock.(rank) <- Float.max s.clock.(rank) resume

let await_two s rank (r1 : Comm.request) (r2 : Comm.request) =
  let resume =
    if r1.Comm.completed && r2.Comm.completed then
      Float.max
        (Float.max s.clock.(rank) r1.Comm.completion)
        r2.Comm.completion
    else begin
      s.blocked_since.(rank) <- s.clock.(rank);
      s.wakes.(rank) <- Wake_two (r1, r2);
      Effect.perform Block
    end
  in
  s.clock.(rank) <- Float.max s.clock.(rank) resume

let await_many s rank (rs : Comm.request array) =
  let resume =
    if Array.for_all (fun (r : Comm.request) -> r.completed) rs then
      Array.fold_left
        (fun acc (r : Comm.request) -> Float.max acc r.completion)
        s.clock.(rank) rs
    else begin
      s.blocked_since.(rank) <- s.clock.(rank);
      s.wakes.(rank) <- Wake_many rs;
      Effect.perform Block
    end
  in
  s.clock.(rank) <- Float.max s.clock.(rank) resume

let dep_of_req s (r : Comm.request) =
  if Comm.has_matched r && r.Comm.req_kind = `Recv then
    let m = r.Comm.matched in
    [
      {
        Instrument.peer_rank = m.Comm.msg_src;
        peer_loc = m.Comm.send_loc;
        peer_cctx = m.Comm.send_cctx;
        peer_callpath = s.contexts.paths.(m.Comm.send_cctx);
        dep_tag = m.Comm.msg_tag;
        dep_bytes = m.Comm.msg_bytes;
        send_time = m.Comm.send_time;
        arrival_time = r.Comm.completion;
      };
    ]
  else []

let get_req (frame : frame) ~loc slot name =
  let r = frame.freqs.(slot) in
  if r == Comm.nil_request then
    runtime_error ~loc "wait on unposted request %S" name
  else r

let no_vars : int array = [||]
let no_reqs : Comm.request array = [||]

let new_frame rank (f : cfunc) =
  {
    fenv =
      {
        C.c_rank = rank;
        c_vars = (if f.cf_nvars = 0 then no_vars else Array.make f.cf_nvars 0);
        c_bound =
          (if f.cf_nvars = 0 then Bytes.empty else Bytes.make f.cf_nvars '\000');
      };
    freqs =
      (if f.cf_nreqs = 0 then no_reqs
       else Array.make f.cf_nreqs Comm.nil_request);
  }

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
  let callee_frame = new_frame rank f in
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
  else exec_block s rank callee_frame f.cf_body

(* MPI execution.  With a tool attached, the reference engine's sequence
   of hook calls, context records and overhead charges (the span record
   only when some tool is due for it); without one, the hook contexts,
   dependence edges, send records and collective record are never built
   (messages carry context 0 and the wait is read before any hook
   closure captures it), so a bare run allocates only its requests,
   messages and wake record here.  The
   clock/wait arithmetic is the same on both, with zero overheads elided
   when no tool is attached. *)
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
        Comm.send s.comm ~src:rank ~dst ~tag ~bytes ~time:s.clock.(rank) ~loc
          ~cctx
      in
      s.clock.(rank) <- s.clock.(rank) +. Network.default.send_overhead;
      let t0 = s.clock.(rank) in
      await_one s rank sreq;
      wait := s.clock.(rank) -. t0;
      if s.has_tools then sends := [ (dst, tag, bytes) ]
  | KRecv { src; tag; bytes } ->
      let src = eval_peer env ~loc src in
      let tag = eval_tag env ~loc tag in
      let bytes = ceval env ~loc bytes in
      let req =
        Comm.post_recv s.comm ~rank ~src ~tag ~bytes ~time:s.clock.(rank) ~loc
      in
      s.clock.(rank) <- s.clock.(rank) +. Network.default.recv_overhead;
      let t0 = s.clock.(rank) in
      await_one s rank req;
      wait := s.clock.(rank) -. t0;
      if s.has_tools then deps := dep_of_req s req
  | KIsend { dest; tag; bytes; slot } ->
      let dst = ceval env ~loc dest in
      let tag = ceval env ~loc tag in
      let bytes = ceval env ~loc bytes in
      let sreq =
        Comm.send s.comm ~src:rank ~dst ~tag ~bytes ~time:s.clock.(rank) ~loc
          ~cctx
      in
      s.clock.(rank) <- s.clock.(rank) +. Network.default.send_overhead;
      frame.freqs.(slot) <- sreq;
      if s.has_tools then sends := [ (dst, tag, bytes) ]
  | KIrecv { src; tag; bytes; slot } ->
      let src = eval_peer env ~loc src in
      let tag = eval_tag env ~loc tag in
      let bytes = ceval env ~loc bytes in
      let rreq =
        Comm.post_recv s.comm ~rank ~src ~tag ~bytes ~time:s.clock.(rank) ~loc
      in
      s.clock.(rank) <- s.clock.(rank) +. Network.default.recv_overhead;
      frame.freqs.(slot) <- rreq
  | KWait { slot; name } ->
      let r = get_req frame ~loc slot name in
      let t0 = s.clock.(rank) in
      await_one s rank r;
      wait := s.clock.(rank) -. t0;
      if s.has_tools then deps := dep_of_req s r
  | KWaitall { slots } ->
      let rs =
        Array.map (fun (slot, name) -> get_req frame ~loc slot name) slots
      in
      let t0 = s.clock.(rank) in
      await_many s rank rs;
      wait := s.clock.(rank) -. t0;
      if s.has_tools then
        deps := List.concat_map (dep_of_req s) (Array.to_list rs)
  | KSendrecv { dest; stag; sbytes; src; rtag; rbytes } ->
      let dst = ceval env ~loc dest in
      let stag = ceval env ~loc stag in
      let sbytes = ceval env ~loc sbytes in
      let src = eval_peer env ~loc src in
      let rtag = eval_tag env ~loc rtag in
      let rbytes = ceval env ~loc rbytes in
      let sreq =
        Comm.send s.comm ~src:rank ~dst ~tag:stag ~bytes:sbytes
          ~time:s.clock.(rank) ~loc ~cctx
      in
      let rreq =
        Comm.post_recv s.comm ~rank ~src ~tag:rtag ~bytes:rbytes
          ~time:s.clock.(rank) ~loc
      in
      s.clock.(rank) <-
        s.clock.(rank) +. Network.default.send_overhead
        +. Network.default.recv_overhead;
      let t0 = s.clock.(rank) in
      await_two s rank sreq rreq;
      wait := s.clock.(rank) -. t0;
      if s.has_tools then begin
        sends := [ (dst, stag, sbytes) ];
        deps := dep_of_req s rreq
      end
  | KColl { bytes } ->
      let bytes = ceval env ~loc bytes in
      s.coll_seqs.(rank) <- s.coll_seqs.(rank) + 1;
      let arrive_time = s.clock.(rank) in
      let c =
        Comm.coll_arrive s.comm ~seq:s.coll_seqs.(rank) ~rank ~time:arrive_time
          ~kind:ast ~bytes
      in
      if c.Comm.finished then wake_collective s c;
      let resume =
        if c.Comm.finished then c.Comm.finish_time
        else begin
          s.blocked_since.(rank) <- arrive_time;
          s.wakes.(rank) <- Wake_coll c;
          Effect.perform Block
        end
      in
      s.clock.(rank) <- Float.max s.clock.(rank) resume;
      wait := Float.max 0.0 (c.Comm.start_time -. arrive_time);
      if s.has_tools then
        collective :=
          Some
            {
              Instrument.coll_seq = c.Comm.coll_seq;
              arrive_time;
              start_time = c.Comm.start_time;
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

let handler s rank =
  {
    Effect.Deep.retc = (fun () -> s.status.(rank) <- st_finished);
    exnc =
      (function
      (* a killed rank stops cleanly: whatever it measured so far stays,
         peers waiting on it are stranded and handled at end of run *)
      | Rank_killed ->
          s.status.(rank) <- st_finished;
          s.killed <- rank :: s.killed
      | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Block ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                s.status.(rank) <- st_blocked;
                s.conts.(rank) <- Some k;
                (* registration only: the awaited condition cannot have
                   completed between the check in await_* and here —
                   execution is single-threaded and nothing ran in
                   between *)
                match s.wakes.(rank) with
                | Wake_one r ->
                    if not r.Comm.completed then r.Comm.waiter <- rank
                | Wake_two (r1, r2) ->
                    if not r1.Comm.completed then r1.Comm.waiter <- rank;
                    if not r2.Comm.completed then r2.Comm.waiter <- rank
                | Wake_many rs ->
                    Array.iter
                      (fun (r : Comm.request) ->
                        if not r.completed then r.waiter <- rank)
                      rs
                | Wake_coll c -> c.Comm.waiters <- rank :: c.Comm.waiters
                | Wake_none -> assert false)
        | _ -> None);
  }

let start_fiber s rank =
  s.status.(rank) <- st_running;
  Effect.Deep.match_with
    (fun () ->
      let f = s.cmain in
      exec_block s rank (new_frame rank f) f.cf_body)
    () (handler s rank)

let rec drive s =
  let rank = Heap.pop_val s.ready in
  if rank >= 0 then begin
    let st = s.status.(rank) in
    if st = st_not_started then start_fiber s rank
    else if st = st_ready then begin
      s.status.(rank) <- st_running;
      match s.conts.(rank) with
      | Some k ->
          s.conts.(rank) <- None;
          Effect.Deep.continue k s.resume_at.(rank)
      | None -> assert false
    end;
    drive s
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
      wakes = Array.make n Wake_none;
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
      killed = [];
    }
  in
  Comm.set_on_complete comm (on_request_complete s);
  for rank = 0 to n - 1 do
    Heap.push s.ready cfg.clock0 rank
  done;
  drive s;
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
