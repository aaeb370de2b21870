(* scalana-diff: compare two detect sessions vertex by vertex and flag
   regressions — the CI half of cross-session observability.

   Both sessions are loaded, analysed, and summarised per vertex (slope,
   time, wait, coverage); the summaries are aligned structurally and
   classified against the thresholds.

   Exit codes: 0 clean (no regressions), 1 regressions found, 2 bad or
   degraded input (either session damaged or fault-degraded — a
   regression verdict over degraded data must not gate a CI lane as if
   it were clean), 3 internal error. *)

open Cmdliner
module Diff = Scalana_detect.Diff

let load_summary ~config ~wait_states dir =
  let s = Cli_common.open_session ~name_dir:true dir in
  let timeline =
    if wait_states then Some (Cli_common.replay_timeline ~config s) else None
  in
  let pipe =
    (* a refused timeline names the session it came from *)
    try Scalana.Pipeline.detect_session ~config ?timeline s
    with Invalid_argument msg -> invalid_arg (dir ^ ": " ^ msg)
  in
  Scalana.Pipeline.diff_summary ~label:dir pipe

let run base cand abnorm_thd domains wait_states slope_tol time_tol wait_tol
    min_fraction trace metrics_out =
  Cli_common.run_cli @@ fun () ->
  (* thresholds are refused before either session loads *)
  Cli_common.check_abnorm_thd abnorm_thd;
  Cli_common.check_at_least ~flag:"--domains" ~min:1 domains;
  Diff.check_tol ~what:"--slope-tol" slope_tol;
  Diff.check_tol ~what:"--time-tol" time_tol;
  Diff.check_tol ~what:"--wait-tol" wait_tol;
  Diff.check_fraction ~what:"--min-fraction" min_fraction;
  if trace <> None || metrics_out <> None then Scalana_obs.Obs.enable ();
  let config =
    { Scalana.Config.default with abnorm_thd; analysis_domains = domains }
  in
  let base_summary = load_summary ~config ~wait_states base in
  let cand_summary = load_summary ~config ~wait_states cand in
  let thresholds = { Diff.slope_tol; time_tol; wait_tol; min_fraction } in
  let diff =
    Diff.compare_summaries ~thresholds ~base:base_summary ~cand:cand_summary
      ()
  in
  print_string (Fmt.str "%a" Diff.pp diff);
  (* the diff's own cost (diff.summarize / diff.compare spans included),
     with the same layout as the report's pipeline-cost section *)
  if Scalana_obs.Obs.enabled () then
    print_string
      (Fmt.str "%a" Scalana_detect.Report.pp_phase_costs
         (Scalana_obs.Obs.phase_summary ()));
  Cli_common.export_obs ~trace ~metrics_out;
  (* degraded inputs dominate, as in scalana-detect: a regression (or a
     clean verdict) computed over fault-damaged data is not trustworthy *)
  if diff.Diff.degraded then Cli_common.exit_bad_input
  else if Diff.has_regressions diff then Cli_common.exit_findings
  else Cli_common.exit_ok

let base_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BASE" ~doc:"Baseline session directory.")

let cand_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"CAND" ~doc:"Candidate session directory to compare.")

let wait_states_arg =
  Arg.(
    value & flag
    & info [ "wait-states" ]
        ~doc:
          "Replay both sessions' rank timelines and include per-vertex \
           wait-class attribution in the summaries.  Exits 2 when either \
           replay does not reproduce its session's profiled run.")

let slope_tol_arg =
  Arg.(
    value
    & opt float Diff.default_thresholds.Diff.slope_tol
    & info [ "slope-tol" ] ~docv:"X"
        ~doc:
          "Absolute log-log slope increase above which an aligned vertex \
           counts as regressed (strict: a delta exactly at $(docv) is \
           benign).")

let time_tol_arg =
  Arg.(
    value
    & opt float Diff.default_thresholds.Diff.time_tol
    & info [ "time-tol" ] ~docv:"X"
        ~doc:
          "Relative growth of a vertex's largest-scale time above which it \
           counts as regressed (0.25 = +25%).")

let wait_tol_arg =
  Arg.(
    value
    & opt float Diff.default_thresholds.Diff.wait_tol
    & info [ "wait-tol" ] ~docv:"X"
        ~doc:"Relative growth of a vertex's sampled wait that regresses it.")

let min_fraction_arg =
  Arg.(
    value
    & opt float Diff.default_thresholds.Diff.min_fraction
    & info [ "min-fraction" ] ~docv:"X"
        ~doc:
          "Ignore vertices below this share of total time on both sides \
           (noise floor).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Trace the diff's own phases (session analysis, summarize, \
           compare) and write a Chrome trace_event JSON to $(docv); also \
           prints the pipeline-cost section.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write self-metrics to $(docv): OpenMetrics/Prometheus text when \
           $(docv) ends in $(b,.prom), JSON otherwise.")

let cmd =
  Cmd.v
    (Cmd.info "scalana-diff" ~exits:Cli_common.exits
       ~doc:
         "Cross-session regression diff: align two sessions' PSG vertices \
          and classify slope/time/wait deltas")
    Term.(
      const run $ base_arg $ cand_arg $ Cli_common.abnorm_thd_arg
      $ Cli_common.domains_arg $ wait_states_arg $ slope_tol_arg
      $ time_tol_arg $ wait_tol_arg $ min_fraction_arg $ trace_arg
      $ metrics_out_arg)

let () = exit (Cmd.eval' cmd)
