(* scalana-viewer: render the detection result with source snippets (the
   text rendering of the Fig. 9 GUI).  Exits 0 on success, 2 on a bad
   flag or a missing or corrupt session. *)

open Cmdliner

let run session context html timeline timeline_np static_crosscheck elastic =
  Cli_common.run_cli @@ fun () ->
  Cli_common.check_at_least ~flag:"--context" ~min:0 context;
  let s = Cli_common.open_session session in
  let config = { Scalana.Config.default with static_crosscheck; elastic } in
  let tl =
    if timeline then
      Some (Cli_common.replay_timeline ~config ?nprocs:timeline_np s)
    else None
  in
  let pipeline = Scalana.Pipeline.detect_session ~config ?timeline:tl s in
  (match html with
  | Some path ->
      Scalana.Htmlreport.write pipeline ~path;
      Printf.printf "HTML report written to %s\n" path
  | None ->
      if timeline then print_string (Scalana.Viewer.show_timeline pipeline)
      else
        print_string (Scalana.Viewer.show ~snippet_context:context pipeline));
  Cli_common.exit_ok

let context_arg =
  Arg.(
    value & opt int 2
    & info [ "context" ] ~docv:"N" ~doc:"Source snippet context lines.")

let html_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "html" ] ~docv:"FILE"
        ~doc:"Write a standalone HTML report instead of text output.")

let timeline_arg =
  Arg.(
    value & flag
    & info [ "timeline" ]
        ~doc:
          "Show the per-rank application timeline as ASCII rows ('=' \
           compute, 'M' MPI, 'w' wait) instead of the root-cause view; \
           with --html, the report gains the wait-state section.")

let static_crosscheck_arg =
  Arg.(
    value & flag
    & info [ "static-crosscheck" ]
        ~doc:
          "Cross-check the static complexity predictions against the \
           measured log-log fits; the report (text and HTML) gains the \
           cross-check annotations and section.")

let elastic_arg =
  Arg.(
    value & flag
    & info [ "elastic" ]
        ~doc:
          "Render the elastic-execution evidence stored with the profiles \
           (membership timelines, recovery-protocol costs); the \
           --timeline rows additionally tag ranks that left, joined or \
           were stranded.  Non-elastic sessions render byte-identically \
           with or without this flag.")

let cmd =
  Cmd.v
    (Cmd.info "scalana-viewer" ~exits:Cli_common.exits
       ~doc:"Root-cause source viewer")
    Term.(
      const run $ Cli_common.session_arg $ context_arg $ html_arg
      $ timeline_arg $ Cli_common.timeline_np_arg $ static_crosscheck_arg
      $ elastic_arg)

let () = exit (Cmd.eval' cmd)
