(* scalana-detect: offline step — build PPGs from the session's profiles,
   detect problematic vertices and backtrack to root causes.

   Exit codes: 0 clean run with no root causes, 1 root causes found,
   2 bad input or damaged artifacts (the report still renders, over what
   was salvaged), 3 internal error. *)

open Cmdliner

let run session abnorm_thd domains follow_def_use static_crosscheck trace
    metrics_out wait_states rank_trace timeline_np history history_label
    history_file =
  Cli_common.run_cli @@ fun () ->
  Cli_common.check_abnorm_thd abnorm_thd;
  Cli_common.check_at_least ~flag:"--domains" ~min:1 domains;
  (* observability on before the session loads, so artifact salvage work
     is on the trace too; the report then carries a pipeline-cost section *)
  if trace <> None || metrics_out <> None then Scalana_obs.Obs.enable ();
  let history_on = history || history_label <> None in
  (* prior ledger entries load before detection so the report can render
     its trend section; this run's own row is appended afterwards *)
  let prior =
    if history_on then begin
      let loaded = Scalana_obs.History.load ~path:history_file in
      if loaded.Scalana_obs.History.dropped > 0 then
        Printf.eprintf
          "scalana: warning: %d damaged history line%s skipped in %s\n%!"
          loaded.Scalana_obs.History.dropped
          (if loaded.Scalana_obs.History.dropped = 1 then "" else "s")
          history_file;
      loaded.Scalana_obs.History.entries
    end
    else []
  in
  let s = Cli_common.open_session session in
  let config =
    {
      Scalana.Config.default with
      abnorm_thd;
      analysis_domains = domains;
      follow_def_use;
      static_crosscheck;
    }
  in
  let timeline =
    if wait_states || rank_trace <> None then
      Some (Cli_common.replay_timeline ~config ?nprocs:timeline_np s)
    else None
  in
  let pipeline =
    Scalana.Pipeline.detect_session ~config ?timeline ~history:prior s
  in
  print_string pipeline.report;
  Printf.printf "\npost-mortem detection cost: %.3fs (%d domain%s)\n"
    pipeline.detect_seconds domains
    (if domains = 1 then "" else "s");
  if history_on then begin
    let entry =
      Scalana.Pipeline.history_entry ?label:history_label pipeline
    in
    Scalana_obs.History.append ~path:history_file entry;
    Printf.eprintf "scalana: history entry appended to %s (%d entries)\n%!"
      history_file
      (List.length prior + 1)
  end;
  Cli_common.export_obs ~trace ~metrics_out;
  (match (rank_trace, timeline) with
  | Some path, Some tl ->
      Scalana_profile.Timeline.export_trace
        ~psg:(Scalana.Static.psg s.static) ~path tl;
      Printf.eprintf
        "scalana: rank trace written to %s (open in Perfetto / \
         about:tracing)\n\
         %!"
        path
  | _ -> ());
  (* damaged inputs dominate the exit code: a degraded verdict must not
     pass for a clean one in CI *)
  if Scalana.Pipeline.degraded pipeline then Cli_common.exit_bad_input
  else if pipeline.analysis.causes <> [] then Cli_common.exit_findings
  else Cli_common.exit_ok

let follow_def_use_arg =
  Arg.(
    value & flag
    & info [ "follow-def-use" ]
        ~doc:
          "Backtrack along the explicit def-use data-dependence edges where \
           available instead of sibling order (default: the paper's \
           Algorithm 1).")

let static_crosscheck_arg =
  Arg.(
    value & flag
    & info [ "static-crosscheck" ]
        ~doc:
          "Cross-check each non-scalable vertex's fitted slope against \
           the symbolic communication model evaluated at the session's \
           scales: agreements annotate the ranking \
           ($(b,[predicted O(p), ... — confirmed])) and raise root-cause \
           confidence; divergences are listed as model mismatches.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Trace the pipeline's own phases and write a Chrome trace_event \
           JSON to $(docv) (open in Perfetto or about:tracing; one track \
           per analysis domain).  Also adds a pipeline-cost section to the \
           report.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the pipeline's self-metrics (counters, gauges, duration \
           histograms, per-phase totals) to $(docv): OpenMetrics/Prometheus \
           text when $(docv) ends in $(b,.prom), JSON otherwise.")

let history_arg =
  Arg.(
    value & flag
    & info [ "history" ]
        ~doc:
          "Append a commit-stamped summary row of this detect run (label, \
           scales, top-k vertex slopes, wait totals, quality flags) to the \
           history ledger, and render a trend section over the prior \
           entries when there are any.")

let history_label_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "history-label" ] ~docv:"LABEL"
        ~doc:"Label stored with the history row (implies --history).")

let history_file_arg =
  Arg.(
    value
    & opt string Scalana_obs.History.default_path
    & info [ "history-file" ] ~docv:"FILE"
        ~doc:"History ledger path (JSONL, one CRC-guarded row per line).")

let wait_states_arg =
  Arg.(
    value & flag
    & info [ "wait-states" ]
        ~doc:
          "Replay a per-rank timeline (re-simulated deterministically at \
           the session's largest scale, or --timeline-np) and append a \
           wait-state section to the report: blocked time attributed per \
           PSG vertex and rank as late-sender / late-receiver / \
           collective-imbalance.  A replay that does not reproduce the \
           profiled run (an injected, differently sampled or elastic \
           run) exits 2, naming the scale and both elapsed times.")

let rank_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rank-trace" ] ~docv:"FILE"
        ~doc:
          "Write the per-rank application timeline as Chrome trace_event \
           JSON to $(docv): one track per rank, one flow arrow per matched \
           message (open in Perfetto or about:tracing; loads alongside a \
           --trace file without id collisions).  Implies the timeline \
           replay of --wait-states.")

let cmd =
  Cmd.v
    (Cmd.info "scalana-detect" ~exits:Cli_common.exits
       ~doc:"Scaling-loss detection and root-cause backtracking (offline)")
    Term.(
      const run $ Cli_common.session_arg $ Cli_common.abnorm_thd_arg
      $ Cli_common.domains_arg $ follow_def_use_arg $ static_crosscheck_arg
      $ trace_arg $ metrics_out_arg $ wait_states_arg $ rank_trace_arg
      $ Cli_common.timeline_np_arg $ history_arg $ history_label_arg
      $ history_file_arg)

let () = exit (Cmd.eval' cmd)
