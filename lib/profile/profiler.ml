(* The ScalAna runtime tool: PAPI-style timer sampling plus PMPI-style
   interposition with random-sampling instrumentation and graph-guided
   compression.  Plugs into the simulator through {!Scalana_runtime.Instrument}
   and fills a {!Profdata.t}. *)

open Scalana_psg
open Scalana_runtime

type config = {
  freq : float;  (* sampling frequency, Hz (paper: 200) *)
  per_sample_cost : float;  (* seconds per interrupt + unwind *)
  record_prob : float;  (* random-sampling instrumentation threshold *)
  per_record_cost : float;  (* seconds to append one comm record *)
  per_call_cost : float;  (* seconds of fixed wrapper cost per MPI call *)
  wait_epsilon : float;  (* a wait above this marks the edge as waiting *)
  seed : int;
}

let default_config =
  {
    freq = 200.0;
    per_sample_cost = 150.0e-6;
    record_prob = 0.5;
    per_record_cost = 5.0e-6;
    per_call_cost = 0.5e-6;
    wait_epsilon = 20.0e-6;
    seed = 42;
  }

type t = {
  cfg : config;
  resolver : Index.Resolver.t;  (* per run: see Index.Resolver *)
  data : Profdata.t;
  next_tick : float array;  (* per rank *)
  rngs : Random.State.t array;  (* per rank, deterministic *)
}

let create ?(config = default_config) ~index ~nprocs () =
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

(* Count sampling ticks inside [start, stop) for [rank]; ticks skipped by
   clock jumps (tool overhead) are dropped, as a real timer would. *)
let ticks t ~rank ~start ~stop =
  let period = 1.0 /. t.cfg.freq in
  if t.next_tick.(rank) < start then t.next_tick.(rank) <- start;
  let n = ref 0 in
  while t.next_tick.(rank) < stop do
    incr n;
    t.next_tick.(rank) <- t.next_tick.(rank) +. period
  done;
  !n

let on_interval t (ctx : Instrument.ctx) ~stop activity =
  let n = ticks t ~rank:ctx.rank ~start:ctx.time ~stop in
  if n = 0 then 0.0
  else begin
    let period = 1.0 /. t.cfg.freq in
    let est_time = float_of_int n *. period in
    t.data.total_samples <- t.data.total_samples + n;
    (match
       Index.Resolver.find t.resolver ~callpath:ctx.callpath ~loc:ctx.loc
     with
    | None -> t.data.unattributed_samples <- t.data.unattributed_samples + n
    | Some vid ->
        let v = Profdata.vector t.data ~rank:ctx.rank ~vertex:vid in
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
        Perfvec.add_sampled v ~time:est_time ~samples:n ~pmu);
    (* Samples landing inside an MPI wait overlap the blocked time: the
       interrupt handler runs while the process would be idle, so it does
       not extend the critical path.  Only compute-span samples perturb
       the run (charging them on waits compounds exponentially along
       pipeline dependence chains). *)
    match activity with
    | Instrument.Compute _ -> float_of_int n *. t.cfg.per_sample_cost
    | Instrument.Mpi_span _ -> 0.0
  end

let on_mpi_exit t (ctx : Instrument.ctx) (info : Instrument.mpi_exit) =
  t.data.mpi_calls_seen <- t.data.mpi_calls_seen + 1;
  let overhead = ref t.cfg.per_call_cost in
  (match
     Index.Resolver.find t.resolver ~callpath:ctx.callpath ~loc:ctx.loc
   with
  | None -> ()
  | Some vid -> (
      let v = Profdata.vector t.data ~rank:ctx.rank ~vertex:vid in
      Perfvec.add_wait v ~wait:info.wait_seconds;
      (* random-sampling instrumentation: record parameters only when the
         draw falls below the threshold (Section III-B2) *)
      let record =
        Random.State.float t.rngs.(ctx.rank) 1.0 < t.cfg.record_prob
      in
      if record then
        match info.collective with
        | Some c ->
            t.data.records_taken <- t.data.records_taken + 1;
            overhead := !overhead +. t.cfg.per_record_cost;
            Commrec.record_coll t.data.comm ~vertex:vid
              ~last_arrival_rank:c.last_arrival_rank
        | None ->
            List.iter
              (fun (d : Instrument.peer_dep) ->
                match
                  Index.Resolver.find t.resolver ~callpath:d.peer_callpath
                    ~loc:d.peer_loc
                with
                | None -> ()
                | Some send_vid ->
                    t.data.records_taken <- t.data.records_taken + 1;
                    overhead := !overhead +. t.cfg.per_record_cost;
                    let key =
                      {
                        Commrec.recv_rank = ctx.rank;
                        recv_vertex = vid;
                        send_rank = d.peer_rank;
                        send_vertex = send_vid;
                        tag = d.dep_tag;
                        bytes = d.dep_bytes;
                      }
                    in
                    Commrec.record_p2p t.data.comm ~key
                      ~waited:(info.wait_seconds > t.cfg.wait_epsilon)
                      ~wait_seconds:info.wait_seconds)
              info.deps));
  !overhead

let on_icall t (ctx : Instrument.ctx) ~target =
  (match
     Index.Resolver.find t.resolver ~callpath:ctx.callpath ~loc:ctx.loc
   with
  | Some vid -> Profdata.record_icall t.data ~callsite_vertex:vid ~target
  | None -> ());
  t.cfg.per_call_cost

let tool t =
  {
    (Instrument.nil "scalana") with
    on_interval = (fun ctx ~stop act -> on_interval t ctx ~stop act);
    on_mpi_exit = (fun ctx info -> on_mpi_exit t ctx info);
    on_icall = (fun ctx ~target -> on_icall t ctx ~target);
    on_run_end =
      (fun ~nprocs:_ ~elapsed -> t.data.elapsed <- elapsed);
  }
