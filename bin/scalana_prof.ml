(* scalana-prof: runtime step — execute the (simulated) program at one
   job scale with the ScalAna profiler attached and add the profile to
   the session. *)

open Cmdliner

let run session nprocs freq measure_overhead inject_delay inject_ranks
    inject_every =
  Cli_common.run_cli @@ fun () ->
  Cli_common.check_at_least ~flag:"--np" ~min:1 nprocs;
  Scalana_profile.Profiler.check_freq ~what:"--freq" freq;
  (* the injection flags shape one rule, so refuse any the rule would
     drop or [Inject.delay] would reject, naming the flag *)
  (match inject_delay with
  | None ->
      let needs_delay flag given =
        if given then
          invalid_arg
            (Printf.sprintf "%s: applies only with --inject-delay" flag)
      in
      needs_delay "--inject-ranks" (inject_ranks <> []);
      needs_delay "--inject-every" (inject_every <> None)
  | Some d ->
      if not (Float.is_finite d && d >= 0.0) then
        invalid_arg
          (Printf.sprintf "--inject-delay %g: must be finite and >= 0" d));
  Option.iter (Cli_common.check_at_least ~flag:"--inject-every" ~min:1)
    inject_every;
  List.iter
    (fun r ->
      if r < 0 || r >= nprocs then
        invalid_arg
          (Printf.sprintf "--inject-ranks %d: must be in [0, %d) at --np %d" r
             nprocs nprocs))
    inject_ranks;
  let static = Scalana.Artifact.load_static session in
  let entry_cost = Cli_common.registry_cost static.Scalana.Static.program in
  let config = { Scalana.Config.default with sampling_freq = freq } in
  (* deterministic perturbation of this one run: every computation (on
     the selected ranks) takes [--inject-delay] extra seconds, so a
     session profiled with it regresses reproducibly against a clean
     one — the seeded-fault half of a scalana-diff regression gate *)
  let inject =
    match inject_delay with
    | None -> Scalana_runtime.Inject.empty
    | Some d ->
        let ranks =
          match inject_ranks with [] -> None | ranks -> Some ranks
        in
        Scalana_runtime.Inject.create
          [ Scalana_runtime.Inject.delay ?ranks ?every:inject_every d ]
  in
  let run =
    (* elastic built-ins run the epoch driver: ranks leave/join per the
       registry plan and the stored profile carries the membership
       timeline *)
    match Cli_common.registry_elastic_plan static.Scalana.Static.program with
    | Some plan ->
        (* refuse the flags the epoch runs cannot honour rather than
           ignore them *)
        let refuse flag what =
          invalid_arg
            (Printf.sprintf
               "%s: %s is an elastic program, whose epoch runs take no %s"
               flag static.Scalana.Static.program.Scalana_mlang.Ast.pname what)
        in
        if inject_delay <> None then refuse "--inject-delay" "injection rules";
        if measure_overhead then
          refuse "--measure-overhead" "overhead baseline";
        Scalana.Prof.run_elastic ~config ~cost:entry_cost ~plan static ~nprocs
          ()
    | None ->
        Scalana.Prof.run ~config ~cost:entry_cost ~inject ~measure_overhead
          static ~nprocs ()
  in
  Scalana.Artifact.save_run session run;
  (* re-save the static artifact: indirect-call refinement mutates it *)
  Scalana.Artifact.save_static session static;
  Printf.printf "np=%d elapsed=%.4fs samples=%d mpi_calls=%d storage=%dB\n"
    nprocs run.result.elapsed run.data.total_samples run.data.mpi_calls_seen
    (Scalana_profile.Profdata.storage_bytes run.data);
  (match Scalana.Prof.overhead_percent run with
  | Some pct -> Printf.printf "runtime overhead: %.2f%%\n" pct
  | None -> ());
  Cli_common.exit_ok

let np_arg =
  Arg.(
    value & opt int 8
    & info [ "n"; "np" ] ~docv:"N" ~doc:"Number of simulated MPI processes.")

let freq_arg =
  Arg.(
    value
    & opt float Scalana.Config.default.sampling_freq
    & info [ "freq" ] ~docv:"HZ" ~doc:"Sampling frequency.")

let overhead_arg =
  Arg.(
    value & flag
    & info [ "measure-overhead" ]
        ~doc:"Also run uninstrumented and report the overhead percentage.")

let inject_delay_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "inject-delay" ] ~docv:"SEC"
        ~doc:
          "Deterministically delay every computation by $(docv) seconds \
           during this profiling run (on the --inject-ranks ranks, every \
           --inject-every executions).  The stored profile regresses \
           reproducibly against a clean session — the seeded-fault input \
           of a $(b,scalana-diff) regression gate.")

let inject_ranks_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "inject-ranks" ] ~docv:"R,S,..."
        ~doc:
          "Ranks --inject-delay applies to (default: all); each must be \
           below --np.")

let inject_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "inject-every" ] ~docv:"K"
        ~doc:
          "Apply --inject-delay on every $(docv)-th execution (default: \
           every one).")

let cmd =
  Cmd.v
    (Cmd.info "scalana-prof" ~exits:Cli_common.exits
       ~doc:"Sampling-based profiling run (runtime)")
    Term.(
      const run $ Cli_common.session_arg $ np_arg $ freq_arg $ overhead_arg
      $ inject_delay_arg $ inject_ranks_arg $ inject_every_arg)

let () = exit (Cmd.eval' cmd)
