(* ScalAna-prof: run an instrumented program at one job scale.

   Runs the simulator with the ScalAna tool attached, then applies the
   runtime refinements to the static artifact: indirect-call resolutions
   are spliced into the contracted PSG and indexed, so later runs and the
   detector see the refined graph (Section III-B3).

   Faults (a {!Scalana_runtime.Faults.plan}) are armed per attempt:
   rank kills and clock skew act inside the simulator, metric poisoning
   corrupts the recorded vectors afterwards.  [run_with_retry] re-draws
   probabilistic faults with a fresh attempt number, bounding how many
   times a killed run is re-profiled. *)

open Scalana_psg
open Scalana_runtime
open Scalana_profile

type run = {
  nprocs : int;
  data : Profdata.t;
  result : Exec.result;
  baseline_elapsed : float option;  (* same run, no tools *)
  attempts : int;  (* profiling attempts consumed (>= 1) *)
  retry_backoff : float list;  (* backoff waited before each retry *)
  elastic : Elastic.info option;  (* set by run_elastic *)
}

let overhead_percent r =
  match r.baseline_elapsed with
  | Some base when base > 0.0 ->
      Some (100.0 *. (r.result.Exec.elapsed -. base) /. base)
  | _ -> None

(* A run degraded when any rank died or was left blocked by a dead peer. *)
let degraded r =
  r.result.Exec.killed_ranks <> [] || r.result.Exec.stranded_ranks <> []

let apply_refinements (static : Static.t) (data : Profdata.t) =
  List.iter
    (fun (res : Profdata.icall_resolution) ->
      match
        (Psg.vertex_opt (Static.psg static) res.callsite_vertex
          : Vertex.t option)
      with
      | Some { Vertex.kind = Vertex.Callsite { callee = None; _ }; _ } -> (
          match
            Inter.refine_indirect (Static.psg static) ~locals:static.locals
              ~callsite:res.callsite_vertex ~target:res.target
          with
          | Some sub_root ->
              Index.index_contracted_subtree static.index sub_root
          | None -> ())
      | Some _ | None -> ())
    (Profdata.icall_resolutions data)

(* Corrupt recorded vectors per the armed poison faults: a NaN or a
   negative time where a sane value stood, exactly what a glitching
   counter hands a real profiler. *)
let apply_poison armed (data : Profdata.t) =
  if not (Faults.is_none armed) then
    Array.iteri
      (fun rank per_rank ->
        Hashtbl.iter
          (fun vertex (vec : Perfvec.t) ->
            match Faults.poison armed ~rank ~vertex with
            | Some `Nan -> vec.Perfvec.time <- Float.nan
            | Some `Negative ->
                vec.Perfvec.time <- -.Float.abs vec.Perfvec.time -. 1e-9
            | None -> ())
          per_rank)
      data.Profdata.vectors

let run ?(config = Config.default) ?(cost = Costmodel.default)
    ?(net = Network.default) ?(inject = Inject.empty)
    ?(faults = Faults.empty) ?(attempt = 1) ?(params = [])
    ?(measure_overhead = false) ?(extra_tools = []) (static : Static.t)
    ~nprocs () =
  Scalana_obs.Obs.with_span
    ~args:
      [ ("nprocs", string_of_int nprocs); ("attempt", string_of_int attempt) ]
    "prof.run"
  @@ fun () ->
  let armed = Faults.arm faults ~nprocs ~attempt in
  let profiler =
    Profiler.create
      ~config:(Config.profiler_config config)
      ~index:static.Static.index ~nprocs ()
  in
  let mk_cfg ~faults tools =
    Exec.config ~nprocs ~params ~cost ~net ~inject ~faults ~tools ()
  in
  let baseline_elapsed =
    if measure_overhead then begin
      (* the baseline measures tool overhead, not fault behavior *)
      let r =
        Exec.run ~cfg:(mk_cfg ~faults:Faults.none []) static.Static.program
      in
      Some r.Exec.elapsed
    end
    else None
  in
  let result =
    Exec.run
      ~cfg:(mk_cfg ~faults:armed (Profiler.tool profiler :: extra_tools))
      static.Static.program
  in
  let data = Profiler.data profiler in
  apply_poison armed data;
  apply_refinements static data;
  {
    nprocs;
    data;
    result;
    baseline_elapsed;
    attempts = attempt;
    retry_backoff = [];
    elastic = None;
  }

(* Profile a scale, re-drawing probabilistic faults on each retry: a run
   that lost ranks is attempted again with a fresh attempt number (same
   plan seed, so the whole sequence is reproducible) up to [retries]
   extra times.  The last attempt is returned even if still degraded —
   the detector then works with the surviving ranks.  [extra_tools] is
   asked for fresh tools on every attempt, so a tool holding state (a
   recorder) observes one attempt only. *)
(* Deterministic exponential backoff before retry [attempt + 1]: the
   schedule a production launcher would sleep out between resubmissions
   (simulated — nothing actually sleeps).  Recorded per attempt on the
   run and exported so a retried session's wall-clock budget is
   explainable from its report alone. *)
let backoff_base = 0.05

let backoff_delay ~attempt = backoff_base *. (2.0 ** float_of_int (attempt - 1))

let run_with_retry ?(retries = 0) ?config ?cost ?net ?inject
    ?(faults = Faults.empty) ?params ?measure_overhead
    ?(extra_tools = fun ~attempt:_ -> []) static ~nprocs () =
  let rec go ~delays attempt =
    let r =
      run ?config ?cost ?net ?inject ~faults ~attempt ?params
        ?measure_overhead ~extra_tools:(extra_tools ~attempt) static ~nprocs
        ()
    in
    if degraded r && attempt <= retries then begin
      Scalana_obs.Obs.Metrics.incr "prof.retries";
      let d = backoff_delay ~attempt in
      Scalana_obs.Obs.Metrics.observe "prof.retry_backoff_seconds" d;
      go ~delays:(d :: delays) (attempt + 1)
    end
    else { r with retry_backoff = List.rev delays }
  in
  go ~delays:[] 1

(* One elastic session: a sequence of membership epochs, each its own
   simulator run over the epoch's iteration slice, stitched by the
   recovery protocol at every boundary.  Ranks keep global identities
   (epoch-local rank [l] is global [members.(l)]), so each epoch's
   profile folds into one per-global-rank artifact; the merged run
   carries [effective_nprocs] (time-weighted membership) for the fits
   and the full membership/recovery summary for reporting.  Departed
   ranks surface as [killed_ranks], so the session is {!degraded} and
   the standard exit-code/data-quality paths apply unchanged. *)
let run_elastic ?(config = Config.default) ?(cost = Costmodel.default)
    ?(net = Network.default) ?(params = []) ~(plan : Elastic.plan)
    (static : Static.t) ~nprocs () =
  Scalana_obs.Obs.with_span
    ~args:[ ("nprocs", string_of_int nprocs) ]
    "prof.run_elastic"
  @@ fun () ->
  let epochs, n_ranks = Elastic.membership plan ~nprocs in
  let gdata = Profdata.create ~nprocs:n_ranks in
  let gfinish = Array.make n_ranks 0.0 in
  let gcomp = Array.make n_ranks 0.0 in
  let gmpi = Array.make n_ranks 0.0 in
  let gwait = Array.make n_ranks 0.0 in
  let gpmu = Array.make n_ranks Pmu.zero in
  let events = ref 0 and messages = ref 0 in
  let recoveries = ref [] and epoch_infos = ref [] in
  let all_left = ref [] in
  let prev_members = ref [||] in
  let clock = ref 0.0 in
  List.iter
    (fun (e : Elastic.epoch) ->
      if e.Elastic.e_left <> [] || e.Elastic.e_joined <> [] then begin
        let finish =
          Array.to_list !prev_members
          |> List.map (fun g -> (g, gfinish.(g)))
        in
        let r =
          Elastic.recover plan ~cost ~net ~nprocs ~iter:e.Elastic.e_lo
            ~left:e.Elastic.e_left ~joined:e.Elastic.e_joined
            ~members:e.Elastic.e_members ~finish
        in
        (* the stall is wait time charged to the surviving ranks *)
        List.iter
          (fun (g, s) ->
            gwait.(g) <- gwait.(g) +. s;
            gfinish.(g) <- r.Elastic.r_end)
          r.Elastic.r_stalls;
        all_left := !all_left @ e.Elastic.e_left;
        recoveries := r :: !recoveries;
        clock := r.Elastic.r_end
      end;
      let enp = Array.length e.Elastic.e_members in
      let profiler =
        Profiler.create
          ~config:(Config.profiler_config config)
          ~index:static.Static.index ~nprocs:enp ()
      in
      (* the epoch sees its global ranks' cores, not local slots 0..enp *)
      let ecost =
        {
          cost with
          Costmodel.core_speed =
            (fun lr -> cost.Costmodel.core_speed e.Elastic.e_members.(lr));
        }
      in
      let eparams =
        (plan.Elastic.lo_param, e.Elastic.e_lo)
        :: (plan.Elastic.hi_param, e.Elastic.e_hi)
        :: params
      in
      let cfg =
        Exec.config ~nprocs:enp ~params:eparams ~cost:ecost ~net
          ~tools:[ Profiler.tool profiler ] ~clock0:!clock ()
      in
      let result = Exec.run ~cfg static.Static.program in
      let edata = Profiler.data profiler in
      apply_refinements static edata;
      Profdata.merge_renumbered ~into:gdata
        ~map:(fun lr -> e.Elastic.e_members.(lr))
        edata;
      Array.iteri
        (fun lr g ->
          gfinish.(g) <- result.Exec.rank_finish.(lr);
          gcomp.(g) <- gcomp.(g) +. result.Exec.comp_seconds.(lr);
          gmpi.(g) <- gmpi.(g) +. result.Exec.mpi_seconds.(lr);
          gwait.(g) <- gwait.(g) +. result.Exec.wait_seconds.(lr);
          gpmu.(g) <- Pmu.add gpmu.(g) result.Exec.comp_pmu.(lr))
        e.Elastic.e_members;
      events := !events + result.Exec.events;
      messages := !messages + result.Exec.messages;
      epoch_infos :=
        {
          Elastic.ei_nprocs = enp;
          ei_lo = e.Elastic.e_lo;
          ei_hi = e.Elastic.e_hi;
          ei_members = e.Elastic.e_members;
          ei_t0 = !clock;
          ei_t1 = result.Exec.elapsed;
        }
        :: !epoch_infos;
      clock := result.Exec.elapsed;
      prev_members := e.Elastic.e_members)
    epochs;
  let epoch_infos = List.rev !epoch_infos in
  let effective = Elastic.effective_nprocs epoch_infos in
  gdata.Profdata.effective_nprocs <- effective;
  let elapsed = Array.fold_left Float.max 0.0 gfinish in
  gdata.Profdata.elapsed <- Float.max gdata.Profdata.elapsed elapsed;
  let info =
    {
      Elastic.nominal = nprocs;
      n_ranks;
      effective;
      elapsed;
      epoch_infos;
      recoveries = List.rev !recoveries;
    }
  in
  let result =
    {
      Exec.elapsed;
      rank_finish = gfinish;
      comp_seconds = gcomp;
      mpi_seconds = gmpi;
      wait_seconds = gwait;
      comp_pmu = gpmu;
      events = !events;
      messages = !messages;
      (* departed ranks flow through the standard degraded paths *)
      killed_ranks = List.sort_uniq compare !all_left;
      stranded_ranks = [];
    }
  in
  {
    nprocs;
    data = gdata;
    result;
    baseline_elapsed = None;
    attempts = 1;
    retry_backoff = [];
    elastic = Some info;
  }
