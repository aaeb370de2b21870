(* Shared cmdliner fragments for the scalana-* executables. *)

open Cmdliner
open Scalana_mlang

(* Exit codes shared by every scalana-* executable (documented in
   README.md): 0 success, 1 findings reported, 2 bad input or corrupt
   artifact, 3 internal error. *)
let exit_ok = 0
let exit_findings = 1
let exit_bad_input = 2
let exit_internal = 3

(* Wrap a CLI body: user-caused failures (bad flags, unparsable sources,
   missing or damaged artifacts) exit 2 with a one-line message; anything
   unexpected exits 3 so scripts can tell our bugs from their inputs. *)
let run_cli body =
  let bad msg =
    Printf.eprintf "scalana: error: %s\n%!" msg;
    exit_bad_input
  in
  try body () with
  | Scalana.Artifact.Error e -> bad (Scalana.Artifact.error_message e)
  | Parser.Parse_error { line; msg } ->
      bad (Printf.sprintf "parse error at line %d: %s" line msg)
  | Lexer.Lex_error { line; msg } ->
      bad (Printf.sprintf "lex error at line %d: %s" line msg)
  | Failure msg | Invalid_argument msg | Sys_error msg -> bad msg
  | e ->
      Printf.eprintf "scalana: internal error: %s\n%!" (Printexc.to_string e);
      exit_internal

(* Refuse an unusable --abnorm-thd before any artifact loads.  It lives
   here because inside scalana-detect the executable's own module hides
   the Scalana_detect library. *)
let check_abnorm_thd thd =
  Scalana_detect.Abnormal.check_thd ~what:"--abnorm-thd" thd

(* Refuse an integer flag below [min] before anything loads: the pool
   would run a --domains below 1 on one domain while the report names
   the bad count, and contraction would treat a negative
   --max-loop-depth as 0. *)
let check_at_least ~flag ~min n =
  if n < min then
    invalid_arg (Printf.sprintf "%s %d: must be >= %d" flag n min)

let load_program ~program_name ~file =
  match (program_name, file) with
  | Some name, None ->
      let entry = Scalana_apps.Registry.find name in
      (entry.make (), entry.cost)
  | None, Some path ->
      let ic = open_in path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let prog = Parser.parse ~file:(Filename.basename path) src in
      Validate.run_exn prog;
      (prog, Scalana_runtime.Costmodel.default)
  | Some _, Some _ -> failwith "give either --program or --file, not both"
  | None, None -> failwith "one of --program or --file is required"

(* Resolve a session program back to its registry entry (if it is a
   built-in), searching every roster: Table II, extreme-scale and
   elastic. *)
let registry_entry (program : Ast.program) =
  List.find_opt
    (fun (e : Scalana_apps.Registry.entry) ->
      String.equal e.name program.Ast.pname
      || String.equal ("npb-" ^ e.name) program.Ast.pname)
    Scalana_apps.Registry.(all @ extreme @ elastic)

(* Built-in workloads carry their preferred machine model; any
   re-simulation of a session program (profiling, timeline replay) must
   run under the same model the stored profiles were collected with. *)
let registry_cost (program : Ast.program) =
  match registry_entry program with
  | Some e -> e.cost
  | None -> Scalana_runtime.Costmodel.default

(* Elastic built-ins declare a membership plan; profiling such a program
   must run the epoch driver so stored profiles carry the membership
   timeline the detection step expects. *)
let registry_elastic_plan (program : Ast.program) =
  match registry_entry program with
  | Some e -> e.elastic_plan
  | None -> None

(* Open a stored session for an offline step: salvage warnings go to
   stderr, and a session without profiles is bad input ([name_dir]
   prefixes the directory, for tools that open more than one). *)
let open_session ?(name_dir = false) dir =
  let s = Scalana.Artifact.load_session dir in
  List.iter
    (fun i ->
      Printf.eprintf "scalana: warning: %s\n%!"
        (Scalana.Artifact.issue_message i))
    s.issues;
  if s.runs = [] then
    failwith
      ((if name_dir then dir ^ ": " else "")
      ^ "session has no profiles; run scalana-prof first");
  s

(* Replay a stored session's rank timeline at [nprocs] (default: its
   largest profiled scale) under the machine model it was profiled
   with.  Only a profiled scale is accepted: the report sets the
   timeline's waits next to the profile of the same scale, and
   [Pipeline.detect_session] refuses a replay that did not reproduce
   that profiled run. *)
let replay_timeline ~config ?nprocs (s : Scalana.Artifact.session) =
  let scales = List.sort compare (List.map fst s.runs) in
  let nprocs =
    match nprocs with
    | None -> List.fold_left max 1 scales
    | Some n when List.mem n scales -> n
    | Some n ->
        failwith
          (Printf.sprintf
             "--timeline-np %d: not a profiled scale of this session \
              (profiled: %s)"
             n
             (String.concat ", " (List.map string_of_int scales)))
  in
  let cost = registry_cost s.static.Scalana.Static.program in
  Scalana.Pipeline.rank_timeline ~config ~cost s.static ~nprocs

(* Write the pipeline's self-observability: a Chrome trace to [trace],
   and to [metrics_out] OpenMetrics text when it ends in .prom (the
   scrapeable format), the JSON dump otherwise. *)
let export_obs ~trace ~metrics_out =
  Option.iter
    (fun path ->
      Scalana_obs.Obs.export_trace ~path;
      Printf.eprintf
        "scalana: trace written to %s (open in Perfetto / about:tracing)\n%!"
        path)
    trace;
  Option.iter
    (fun path ->
      if Filename.check_suffix path ".prom" then begin
        Scalana_obs.Obs.export_openmetrics ~path;
        Printf.eprintf "scalana: OpenMetrics written to %s\n%!" path
      end
      else begin
        Scalana_obs.Obs.export_metrics ~path;
        Printf.eprintf "scalana: metrics written to %s\n%!" path
      end)
    metrics_out

let program_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "p"; "program" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Built-in workload to analyze (one of: %s)."
             (String.concat ", " Scalana_apps.Registry.names)))

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"SRC.mmp" ~doc:"MiniMPI source file to analyze.")

let session_arg =
  Arg.(
    value
    & opt string "scalana-session"
    & info [ "s"; "session" ] ~docv:"DIR"
        ~doc:"Session directory carrying artifacts between steps.")

let max_loop_depth_arg =
  Arg.(
    value
    & opt int Scalana.Config.default.max_loop_depth
    & info [ "max-loop-depth" ] ~docv:"N"
        ~doc:
          "PSG contraction bound on nested loop depth (MaxLoopDepth); at \
           least 0.")

let abnorm_thd_arg =
  Arg.(
    value
    & opt float Scalana.Config.default.abnorm_thd
    & info [ "abnorm-thd" ] ~docv:"X"
        ~doc:"Abnormal-vertex deviation threshold (AbnormThd).")

let domains_arg =
  Arg.(
    value
    & opt int Scalana.Config.default.analysis_domains
    & info [ "j"; "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for the analysis fan-outs (PPG builds, log-log \
           fits), at least 1; 1 forces the sequential path.  Results are \
           identical either way.")

let timeline_np_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeline-np" ] ~docv:"N"
        ~doc:
          "Scale of the timeline replay: one of the scales profiled in \
           the session (default: the largest).")

let exits =
  Cmd.Exit.info exit_ok ~doc:"on success."
  :: Cmd.Exit.info exit_findings ~doc:"when findings are reported."
  :: Cmd.Exit.info exit_bad_input
       ~doc:"on bad input or a corrupt/missing artifact."
  :: Cmd.Exit.info exit_internal ~doc:"on an internal error."
  :: Cmd.Exit.defaults
