(* ScalAna-detect: the end-to-end pipeline.

   Static analysis once, profiled runs at several job scales, PPG
   construction, problematic-vertex detection and backtracking root-cause
   identification, and the final report.  The detection step is timed
   (Table IV's post-mortem detection cost).

   The pipeline degrades instead of dying: damaged artifacts are
   salvaged, fault-killed runs retried with fresh draws and analyzed
   over their surviving ranks, and everything lost is accounted in a
   {!Scalana_detect.Quality.t} that prepends a data-quality section to
   the report.  With clean inputs the quality record is
   {!Scalana_detect.Quality.clean} and the report is byte-identical to a
   pipeline without the resilience layer. *)

open Scalana_mlang
open Scalana_runtime
open Scalana_ppg
open Scalana_detect

type t = {
  static : Static.t;
  runs : (int * Prof.run) list;
  crossscale : Crossscale.t;
  analysis : Rootcause.analysis;
  lint : Lint.finding list;  (* static scaling-loss predictions *)
  quality : Quality.t;  (* what degraded inputs lost (clean = nothing) *)
  detect_seconds : float;
  phase_costs : (string * int * float) list;
      (* per-phase self-observability summary; [] unless tracing is on *)
  timeline : Scalana_profile.Timeline.t option;
      (* per-rank timeline at one profiled scale (the largest unless the
         caller picked another); None unless requested *)
  history : Scalana_obs.History.entry list;
      (* prior ledger entries behind the report's trend section; []
         unless the caller loaded a ledger (--history) *)
  report : string;
}

(* The replay: re-simulate one scale with the timeline recorder attached
   next to the regular profiler, for stored sessions, whose runs are
   over, and for elastic scales, which have no single run.  The
   profiler's hooks charge the same overhead onto the simulated clocks as
   they did during the stored profiled run, and the recorder charges
   none, so the captured timeline reproduces the session's clocks
   exactly, given the injection rules the session ran with (sessions do
   not store them).  For indirect-call programs the re-run sees the fully
   refined graph, which the earliest stored run may not have.  The shared
   static artifact is not mutated: no refinement splicing, no poison. *)
let rank_timeline ?(config = Config.default) ?(cost = Costmodel.default)
    ?(inject = Inject.empty) (static : Static.t) ~nprocs =
  Scalana_obs.Obs.with_span
    ~args:[ ("nprocs", string_of_int nprocs) ]
    "pipeline.rank_timeline"
  @@ fun () ->
  let profiler =
    Scalana_profile.Profiler.create
      ~config:(Config.profiler_config config)
      ~index:static.Static.index ~nprocs ()
  in
  let recorder =
    Scalana_profile.Timeline.create ~index:static.Static.index ~nprocs ()
  in
  let cfg =
    Exec.config ~nprocs ~cost ~inject
      ~tools:
        [
          Scalana_profile.Profiler.tool profiler;
          Scalana_profile.Timeline.tool recorder;
        ]
      ()
  in
  ignore (Exec.run ~cfg static.Static.program : Exec.result);
  Scalana_profile.Timeline.capture recorder

(* Everything the inputs lost, in one record: artifact damage handed in
   by the loader, runs that lost ranks or needed retries, scales that
   never ran, and the analysis' own quarantine counts. *)
let assemble_quality ~artifact_issues ~dropped_scales runs
    (analysis : Rootcause.analysis) =
  let run_issues =
    List.filter_map
      (fun (n, (r : Prof.run)) ->
        let killed = List.sort compare r.Prof.result.Exec.killed_ranks in
        let stranded = List.sort compare r.Prof.result.Exec.stranded_ranks in
        if killed <> [] || stranded <> [] || r.Prof.attempts > 1 then
          let left, joined, epochs =
            match r.Prof.elastic with
            | None -> ([], [], 0)
            | Some (i : Elastic.info) ->
                ( List.concat_map
                    (fun (rc : Elastic.recovery) -> rc.Elastic.r_left)
                    i.Elastic.recoveries,
                  List.concat_map
                    (fun (rc : Elastic.recovery) -> rc.Elastic.r_joined)
                    i.Elastic.recoveries,
                  List.length i.Elastic.epoch_infos )
          in
          Some
            {
              Quality.ri_nprocs = n;
              ri_killed = killed;
              ri_stranded = stranded;
              ri_attempts = r.Prof.attempts;
              ri_left = List.sort compare left;
              ri_joined = List.sort compare joined;
              ri_epochs = epochs;
              ri_backoff =
                List.fold_left ( +. ) 0.0 r.Prof.retry_backoff;
            }
        else None)
      runs
  in
  let rank_coverage =
    List.fold_left
      (fun acc (_, (r : Prof.run)) ->
        let total = r.Prof.nprocs in
        let lost =
          List.length r.Prof.result.Exec.killed_ranks
          + List.length r.Prof.result.Exec.stranded_ranks
        in
        if total > 0 then min acc (float_of_int (total - lost) /. float_of_int total)
        else acc)
      1.0 runs
  in
  {
    Quality.artifact_issues;
    run_issues;
    dropped_scales = List.sort compare dropped_scales;
    quarantined_values = analysis.Rootcause.quarantined_values;
    insufficient_vertices = List.length analysis.Rootcause.insufficient;
    rank_coverage;
  }

(* Run detection over already-collected profiles, fanning the PPG builds
   and per-vertex fits out over [pool]. *)
let detect_with ?(config = Config.default) ?pool
    ?(artifact_issues : Quality.artifact_issue list = [])
    ?(dropped_scales = []) ?timeline ?(history = []) (static : Static.t)
    (runs : (int * Prof.run) list) =
  let t0 = Unix.gettimeofday () in
  let crossscale, analysis =
    Scalana_obs.Obs.with_span "pipeline.detect" @@ fun () ->
    let crossscale =
      Crossscale.create ?pool ~psg:(Static.psg static)
        (List.map (fun (n, (r : Prof.run)) -> (n, r.Prof.data)) runs)
    in
    let waitstate =
      Option.map
        (fun tl ->
          Scalana_obs.Obs.with_span "waitstate.analyze" @@ fun () ->
          Waitstate.analyze tl)
        timeline
    in
    let analysis =
      Rootcause.analyze ~ns_config:(Config.ns_config config)
        ~ab_config:(Config.ab_config config)
        ~bt_config:(Config.bt_config config) ?pool ?waitstate crossscale
    in
    (* the static-model cross-check re-derives the symbolic
       communication model at exactly the scales that were profiled and
       fits it with the same log-log estimator; off by default so the
       analysis (and the report below) is unchanged *)
    let analysis =
      if config.Config.static_crosscheck then
        let scales = List.map fst runs in
        {
          analysis with
          Rootcause.crosscheck =
            Some
              (Crosscheck.run ~psg:(Static.psg static)
                 ~program:static.Static.program ~scales
                 analysis.Rootcause.nonscalable);
        }
      else analysis
    in
    (* elastic membership/recovery summaries travel on the runs; attach
       them only under --elastic, so default reports are unchanged even
       for sessions that were profiled elastically *)
    let analysis =
      if config.Config.elastic then
        {
          analysis with
          Rootcause.elastic =
            List.filter_map
              (fun (n, (r : Prof.run)) ->
                Option.map (fun i -> (n, i)) r.Prof.elastic)
              runs;
        }
      else analysis
    in
    (crossscale, analysis)
  in
  let detect_seconds = Unix.gettimeofday () -. t0 in
  let lint =
    Scalana_obs.Obs.with_span "lint.run" (fun () ->
        Lint.run static.Static.program)
  in
  let quality = assemble_quality ~artifact_issues ~dropped_scales runs analysis in
  (* summarized before rendering, so the report's own cost section covers
     every phase up to (but not including) the rendering itself *)
  let phase_costs =
    if Scalana_obs.Obs.enabled () then Scalana_obs.Obs.phase_summary () else []
  in
  let report =
    Scalana_obs.Obs.with_span "report.render" @@ fun () ->
    Report.render ~program:static.Static.program
      ~predicted_locs:(List.map (fun (f : Lint.finding) -> f.Lint.loc) lint)
      ~quality ~phase_costs ~history
      ?ppg:
        (Option.bind timeline (fun tl ->
             Crossscale.ppg_at crossscale
               ~nprocs:(Scalana_profile.Timeline.nprocs tl)))
      ~psg:(Static.psg static) analysis
  in
  {
    static;
    runs;
    crossscale;
    analysis;
    lint;
    quality;
    detect_seconds;
    phase_costs;
    timeline;
    history;
    report;
  }

(* Detection over a loaded session: salvage issues found by the artifact
   reader become data-quality entries. *)
let detect_session ?(config = Config.default) ?timeline ?history
    (session : Artifact.session) =
  Scalana_obs.Obs.with_span "pipeline.detect_session" @@ fun () ->
  let artifact_issues =
    List.map
      (fun (i : Artifact.issue) ->
        {
          Quality.ai_path = i.Artifact.issue_path;
          ai_kept = i.Artifact.kept;
          ai_detail = Artifact.error_detail i.Artifact.error;
        })
      session.Artifact.issues
  in
  Pool.with_pool ~size:config.Config.analysis_domains (fun pool ->
      detect_with ~config ?pool ~artifact_issues ?timeline ?history
        session.Artifact.static session.Artifact.runs)

(* The per-scale profiled runs are independent — and may therefore fan
   out — only when nothing couples them: indirect-call programs refine
   the shared PSG/index as they run (each scale profiles against the
   graph refined by its predecessors), and injection rules carry `every`
   counters across runs.  Both are detected here and keep the run stage
   sequential; everything downstream still parallelizes.  Fault plans do
   not couple runs: every draw is keyed on (seed, nprocs, attempt). *)
let runs_independent ~inject (program : Ast.program) =
  Inject.is_empty inject && not (Ast.has_icalls program)

let run ?(config = Config.default) ?(cost = Costmodel.default)
    ?(inject = Inject.empty) ?(faults = Faults.empty)
    ?(scales = [ 4; 8; 16; 32 ]) ?(timeline = false) ?elastic
    (program : Ast.program) =
  Scalana_obs.Obs.with_span
    ~args:[ ("program", program.Ast.pname) ]
    "pipeline.run"
  @@ fun () ->
  Pool.with_pool ~size:config.Config.analysis_domains (fun pool ->
      let static =
        Scalana_obs.Obs.with_span "static.analyze" @@ fun () ->
        Static.analyze ~max_loop_depth:config.Config.max_loop_depth ?pool
          program
      in
      let dropped_scales, kept_scales =
        List.partition (fun n -> Faults.drops_scale faults ~nprocs:n) scales
      in
      let largest = List.fold_left max 0 kept_scales in
      let profile ?extra_tools nprocs =
        Prof.run_with_retry ~retries:config.Config.max_run_retries ~config
          ~cost ~inject ~faults ?extra_tools static ~nprocs ()
      in
      let one nprocs =
        match elastic with
        | Some plan ->
            (* an elastic session replaces the single fixed run;
               faults/injection act within each epoch's own draws *)
            ( nprocs,
              Prof.run_elastic ~config ~cost ~plan static ~nprocs (),
              None )
        | None when timeline && nprocs = largest ->
            (* the timeline is recorded in the largest scale's own
               profiled run, a fresh recorder per attempt, so it shows
               the attempt the analysis reads *)
            let recorder = ref None in
            let extra_tools ~attempt:_ =
              let r =
                Scalana_profile.Timeline.create ~index:static.Static.index
                  ~nprocs ()
              in
              recorder := Some r;
              [ Scalana_profile.Timeline.tool r ]
            in
            let run = profile ~extra_tools nprocs in
            (nprocs, run, Option.map Scalana_profile.Timeline.capture !recorder)
        | None -> (nprocs, profile nprocs, None)
      in
      let profiled =
        Scalana_obs.Obs.with_span
          ~args:[ ("scales", string_of_int (List.length kept_scales)) ]
          "pipeline.profile_runs"
        @@ fun () ->
        if runs_independent ~inject program then
          Pool.parallel_map ?pool one kept_scales
        else List.map one kept_scales
      in
      let runs = List.map (fun (n, r, _) -> (n, r)) profiled in
      let tl =
        match elastic with
        | Some _ when timeline && kept_scales <> [] ->
            (* no single run spans an elastic scale: replay it *)
            Some
              (rank_timeline ~config ~cost ~inject static ~nprocs:largest)
        | Some _ -> None
        | None -> List.find_map (fun (_, _, tl) -> tl) profiled
      in
      detect_with ~config ?pool ~dropped_scales ?timeline:tl static runs)

(* Did anything degrade this pipeline's inputs? *)
let degraded t = not (Quality.is_clean t.quality)

(* What the PPGs add to the profiles they read in place, summed over
   every profiled scale. *)
let ppg_storage_bytes t =
  List.fold_left
    (fun acc (_, ppg) -> acc + Ppg.storage_bytes ppg)
    0 t.crossscale.Crossscale.runs

(* The session summarised for cross-session diffing: the detector's
   per-vertex slopes, plus times, waits and coverage, self-contained (no
   session access needed to compare two of them). *)
let diff_summary ?label t =
  Diff.summarize ?label ~psg:(Static.psg t.static) ~crossscale:t.crossscale
    ~analysis:t.analysis ~quality:t.quality
    ~program:t.static.Static.program.Ast.pname ()

(* One commit-stamped ledger row for this detect run: the top-k
   non-scalable slopes keyed the way Diff aligns vertices, wait-class
   totals when a timeline replay ran (the summed sampled wait
   otherwise), and the quality flags.  [time]/[commit] default to now /
   the checked-out commit; tests pass both for determinism. *)
let history_entry ?time ?commit ?(label = "") t =
  let module H = Scalana_obs.History in
  let psg = Static.psg t.static in
  let slopes =
    List.map
      (fun (f : Nonscalable.finding) ->
        ( Diff.key_string (Diff.key_of_vertex psg f.Nonscalable.vertex),
          f.Nonscalable.slope ))
      t.analysis.Rootcause.nonscalable
  in
  let waits =
    match t.analysis.Rootcause.waitstate with
    | Some ws ->
        List.map
          (fun (c, total) -> (Waitstate.class_name c, total))
          ws.Waitstate.class_totals
    | None ->
        let _, largest = Crossscale.largest t.crossscale in
        let total =
          List.fold_left
            (fun acc v -> acc +. Ppg.total_wait largest ~vertex:v)
            0.0
            (Ppg.touched_vertices largest)
        in
        [ ("sampled", total) ]
  in
  {
    H.h_time = (match time with Some v -> v | None -> Unix.gettimeofday ());
    h_commit = (match commit with Some c -> c | None -> H.current_commit ());
    h_label = label;
    h_program = t.static.Static.program.Ast.pname;
    h_scales = Crossscale.scales t.crossscale;
    h_slopes = slopes;
    h_waits = waits;
    h_degraded = degraded t;
    h_coverage = t.quality.Quality.rank_coverage;
    h_detect_seconds = t.detect_seconds;
  }

let root_cause_labels t =
  List.map (fun (c : Rootcause.cause) -> c.cause_label) t.analysis.causes
