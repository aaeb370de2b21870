(* Call-path profiling baseline (the HPCToolkit role).

   Timer sampling with full stack unwinding attributes time to calling
   contexts; the report ranks contexts by time and flags non-scaling or
   imbalanced ones.  It exposes bottleneck *points* (an MPI_Waitall, a
   hot loop) but performs no dependence analysis, so distinguishing the
   causal root among them is left to the human — the comparison axis the
   paper draws in Section VI-D. *)

open Scalana_runtime

(* The paper's 200 Hz; the per-sample cost includes the full unwind,
   slightly above ScalAna's. *)
let freq = 200.0
let period = 1.0 /. freq
let per_sample_cost = 400.0e-6

type t = {
  cct : Cct.t;
  next_tick : float array;
  mutable total_samples : int;
  mutable elapsed : float;
}

let create ~nprocs () =
  {
    cct = Cct.create ~nprocs;
    next_tick = Array.make nprocs period;
    total_samples = 0;
    elapsed = 0.0;
  }

let on_interval t (ctx : Instrument.ctx) ~stop activity =
  let n =
    Instrument.ticks t.next_tick ~period ~rank:ctx.rank ~start:ctx.time ~stop
  in
  if n = 0 then 0.0
  else begin
    t.total_samples <- t.total_samples + n;
    let node =
      Cct.find_or_add t.cct ~rank:ctx.rank ~callpath:ctx.callpath ~loc:ctx.loc
    in
    let est = float_of_int n *. period in
    node.Cct.time <- node.Cct.time +. est;
    node.samples <- node.samples + n;
    (match activity with
    | Instrument.Compute { pmu; _ } ->
        let duration = stop -. ctx.time in
        let frac = if duration > 0.0 then est /. duration else 1.0 in
        node.pmu <- Pmu.add_scaled node.pmu frac pmu
    | Instrument.Mpi_span { wait_seconds; _ } ->
        node.is_mpi <- true;
        node.wait <- node.wait +. Float.min wait_seconds est);
    (* wait-span samples overlap blocked time; only compute samples
       perturb the run (see Profiler.on_interval) *)
    match activity with
    | Instrument.Compute _ -> float_of_int n *. per_sample_cost
    | Instrument.Mpi_span _ -> 0.0
  end

let tool t =
  {
    (Instrument.nil "callprof") with
    sample_gate = t.next_tick;
    on_interval = (fun ctx ~stop act -> on_interval t ctx ~stop act);
    on_run_end = (fun ~nprocs:_ ~elapsed -> t.elapsed <- elapsed);
  }

let cct t = t.cct
let storage_bytes t = Cct.storage_bytes t.cct

type hotspot = {
  hs_loc : Scalana_mlang.Loc.t;
  hs_time : float;
  hs_is_mpi : bool;
  hs_imbalance : float;  (* max/min across ranks *)
}

(* Flat hotspot list: the tool's answer to "where does time go".  No
   dependence links — by design. *)
let hotspots ?(top = 10) t =
  let nprocs = Array.length (t.cct : Cct.t).per_rank in
  let merged = Cct.merge t.cct in
  let spots =
    List.map
      (fun (m : Cct.merged) ->
        {
          hs_loc = m.m_loc;
          hs_time = m.m_time;
          hs_is_mpi = m.m_is_mpi;
          hs_imbalance =
            (* ranks that never sampled the context count as zero time *)
            (if m.m_ranks < nprocs && m.m_max_time > 0.0 then infinity
             else if m.m_min_time > 0.0 then m.m_max_time /. m.m_min_time
             else if m.m_max_time > 0.0 then infinity
             else 1.0);
        })
      merged
    |> List.sort (fun a b -> compare b.hs_time a.hs_time)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take top spots
