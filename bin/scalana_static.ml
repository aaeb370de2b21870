(* scalana-static: compile-time step — build and contract the PSG, store
   it in the session directory, print Table II-style statistics (now
   including the def-use dataflow counts).  With --lint, also run the
   static scaling-loss linter and exit 1 on findings. *)

open Cmdliner

let run program_name file session max_loop_depth dump predict lint =
  Cli_common.run_cli @@ fun () ->
  Cli_common.check_at_least ~flag:"--max-loop-depth" ~min:0 max_loop_depth;
  let program, _cost = Cli_common.load_program ~program_name ~file in
  let static = Scalana.Static.analyze ~max_loop_depth program in
  Scalana.Artifact.save_static session static;
  print_endline Scalana_psg.Stats.header;
  print_endline (Scalana_psg.Stats.row static.stats);
  Printf.printf "contraction removed %.0f%% of vertices\n"
    (100.0 *. Scalana_psg.Stats.contraction_ratio static.stats);
  Printf.printf "session written to %s\n" session;
  if dump then begin
    print_endline "-- contracted PSG --";
    Fmt.pr "%a@." Scalana_psg.Psg.pp (Scalana.Static.psg static)
  end;
  if predict then
    Fmt.pr "%a" Scalana_cfg.Commcost.render static.Scalana.Static.commcost;
  if lint then begin
    let findings = Lint.run program in
    print_endline "-- static lint --";
    Fmt.pr "%a" Lint.pp_report findings;
    if findings = [] then Cli_common.exit_ok else Cli_common.exit_findings
  end
  else Cli_common.exit_ok

let dump_arg =
  Arg.(value & flag & info [ "dump-psg" ] ~doc:"Print the contracted PSG.")

let predict_arg =
  Arg.(
    value & flag
    & info [ "predict" ]
        ~doc:
          "Print the symbolic communication-complexity predictions: \
           per-statement scaling classes, message counts, byte volumes, \
           destination expressions, and per-function communication \
           patterns and matrices.")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:"Run the static scaling-loss linter too; exit 1 on findings.")

let cmd =
  Cmd.v
    (Cmd.info "scalana-static" ~exits:Cli_common.exits
       ~doc:"Static PSG construction (compile time)")
    Term.(
      const run $ Cli_common.program_arg $ Cli_common.file_arg
      $ Cli_common.session_arg $ Cli_common.max_loop_depth_arg $ dump_arg
      $ predict_arg $ lint_arg)

let () = exit (Cmd.eval' cmd)
