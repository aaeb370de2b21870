(* The ScalAna runtime tool: PAPI-style timer sampling plus PMPI-style
   interposition with random-sampling instrumentation and graph-guided
   compression.  Plugs into the simulator through {!Scalana_runtime.Instrument}
   and fills a {!Profdata.t}. *)

open Scalana_psg
open Scalana_runtime

type config = {
  freq : float;  (* sampling frequency, Hz (paper: 200) *)
  record_prob : float;  (* random-sampling instrumentation threshold *)
  seed : int;
}

let default_config = { freq = 200.0; record_prob = 0.5; seed = 42 }

(* The tool's modelled costs, calibrated once: seconds per interrupt and
   unwind, per appended comm record and per MPI wrapper call.  A wait
   above [wait_epsilon] marks its edge as waiting. *)
let per_sample_cost = 150.0e-6
let per_record_cost = 5.0e-6
let per_call_cost = 0.5e-6
let wait_epsilon = 20.0e-6

(* A period no longer than one sample's cost is spent in the handler;
   far below it, the tick loop stops advancing (half an ulp). *)
let check_freq ~what freq =
  if not (Float.is_finite freq && freq > 0.0) then
    Fmt.invalid_arg "%s %g: must be finite and > 0" what freq
  else if 1.0 /. freq <= per_sample_cost then
    Fmt.invalid_arg
      "%s %g: must be below %g Hz, where one sample's modelled %g µs cost \
       fills the sampling period"
      what freq (1.0 /. per_sample_cost) (per_sample_cost *. 1e6)

type t = {
  cfg : config;
  resolver : Index.Resolver.t;  (* per run: see Index.Resolver *)
  data : Profdata.t;
  next_tick : float array;  (* per rank; also the tool's sample gate *)
  rngs : Random.State.t array;  (* per rank, deterministic *)
}

let create ?(config = default_config) ~index ~nprocs () =
  check_freq ~what:"Profiler.create: freq" config.freq;
  {
    cfg = config;
    resolver = Index.Resolver.create index;
    data = Profdata.create ~nprocs;
    next_tick = Array.make nprocs (1.0 /. config.freq);
    rngs =
      Array.init nprocs (fun r ->
          Random.State.make [| config.seed; r; 0x5ca1 |]);
  }

let data t = t.data

let resolve t (ctx : Instrument.ctx) =
  Index.Resolver.find t.resolver ~cctx:ctx.cctx ~callpath:ctx.callpath
    ~loc:ctx.loc

let on_interval t (ctx : Instrument.ctx) ~stop activity =
  let n =
    Instrument.ticks t.next_tick ~freq:t.cfg.freq ~rank:ctx.rank
      ~start:ctx.time ~stop
  in
  if n = 0 then 0.0
  else begin
    let period = 1.0 /. t.cfg.freq in
    let est_time = float_of_int n *. period in
    t.data.total_samples <- t.data.total_samples + n;
    (match resolve t ctx with
    | None -> t.data.unattributed_samples <- t.data.unattributed_samples + n
    | Some vid ->
        let duration = stop -. ctx.time in
        (* attribute counter deltas at the sampling rate: pmu-rate of the
           span times the sampled time — unbiased like PAPI's interrupt
           deltas, regardless of span length *)
        let pmu =
          match activity with
          | Instrument.Compute { pmu; _ } when duration > 0.0 ->
              Pmu.scale (est_time /. duration) pmu
          | Instrument.Compute { pmu; _ } -> pmu
          | Instrument.Mpi_span _ -> Pmu.zero
        in
        Profdata.add_sampled t.data ~rank:ctx.rank ~vertex:vid ~time:est_time
          ~samples:n ~pmu);
    (* Samples landing inside an MPI wait overlap the blocked time: the
       interrupt handler runs while the process would be idle, so it does
       not extend the critical path.  Only compute-span samples perturb
       the run (charging them on waits compounds exponentially along
       pipeline dependence chains). *)
    match activity with
    | Instrument.Compute _ -> float_of_int n *. per_sample_cost
    | Instrument.Mpi_span _ -> 0.0
  end

let on_mpi_exit t (ctx : Instrument.ctx) (info : Instrument.mpi_exit) =
  t.data.mpi_calls_seen <- t.data.mpi_calls_seen + 1;
  let overhead = ref per_call_cost in
  (match resolve t ctx with
  | None -> ()
  | Some vid -> (
      Profdata.add_wait t.data ~rank:ctx.rank ~vertex:vid
        ~wait:info.wait_seconds;
      (* random-sampling instrumentation: record parameters only when the
         draw falls below the threshold (Section III-B2) *)
      let record =
        Random.State.float t.rngs.(ctx.rank) 1.0 < t.cfg.record_prob
      in
      if record then
        match info.collective with
        | Some c ->
            t.data.records_taken <- t.data.records_taken + 1;
            overhead := !overhead +. per_record_cost;
            Commrec.record_coll t.data.comm ~vertex:vid
              ~last_arrival_rank:c.last_arrival_rank
        | None ->
            List.iter
              (fun (d : Instrument.peer_dep) ->
                match
                  Index.Resolver.find t.resolver ~cctx:d.peer_cctx
                    ~callpath:d.peer_callpath ~loc:d.peer_loc
                with
                | None -> ()
                | Some send_vid ->
                    t.data.records_taken <- t.data.records_taken + 1;
                    overhead := !overhead +. per_record_cost;
                    Commrec.record_p2p t.data.comm ~recv_rank:ctx.rank
                      ~recv_vertex:vid ~send_rank:d.peer_rank
                      ~send_vertex:send_vid ~tag:d.dep_tag ~bytes:d.dep_bytes
                      ~waited:(info.wait_seconds > wait_epsilon)
                      ~wait_seconds:info.wait_seconds)
              info.deps));
  !overhead

let on_icall t (ctx : Instrument.ctx) ~target =
  (match resolve t ctx with
  | Some vid -> Profdata.record_icall t.data ~callsite_vertex:vid ~target
  | None -> ());
  per_call_cost

let tool t =
  {
    (Instrument.nil "scalana") with
    sample_gate = t.next_tick;
    on_interval = (fun ctx ~stop act -> on_interval t ctx ~stop act);
    on_mpi_exit = (fun ctx info -> on_mpi_exit t ctx info);
    on_icall = (fun ctx ~target -> on_icall t ctx ~target);
    on_run_end =
      (fun ~nprocs:_ ~elapsed ->
        t.data.elapsed <- elapsed;
        Commrec.freeze t.data.comm);
  }
