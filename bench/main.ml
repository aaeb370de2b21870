(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation plus the ablation benches, then runs the Bechamel
   micro-benchmarks.

     dune exec bench/main.exe                 # everything (4..128 procs)
     dune exec bench/main.exe -- --fast       # cap sweeps at 32 procs
     dune exec bench/main.exe -- --only fig12 --only table2
     dune exec bench/main.exe -- --list                          *)

open Cmdliner

let experiments = Experiments.all @ Ablations.all @ Parallel.all

(* Every wanted target runs even when an earlier one raised; the exit
   status is 1 when any of them did, so a caller never reads numbers a
   failed target left over from an earlier run. *)
let run only fast no_bech list_only =
  if list_only then begin
    List.iter (fun (name, _) -> print_endline name) experiments;
    print_endline "bechamel";
    0
  end
  else begin
    Experiments.max_np := (if fast then 32 else 128);
    let wanted name = only = [] || List.mem name only in
    let failed = ref false in
    let attempt name fn =
      try fn ()
      with e ->
        failed := true;
        Printf.printf "  !! %s failed: %s\n%!" name (Printexc.to_string e)
    in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (name, fn) -> if wanted name then attempt name fn)
      experiments;
    if (not no_bech) && wanted "bechamel" then attempt "bechamel" Microbench.run;
    Printf.printf "\nTotal bench wall time: %.1fs\n"
      (Unix.gettimeofday () -. t0);
    if !failed then 1 else 0
  end

let only_arg =
  Arg.(
    value & opt_all string []
    & info [ "only" ] ~docv:"ID"
        ~doc:"Run only the given experiment (repeatable). See --list.")

let fast_arg =
  Arg.(value & flag & info [ "fast" ] ~doc:"Cap process sweeps at 32 ranks.")

let no_bech_arg =
  Arg.(value & flag & info [ "no-bechamel" ] ~doc:"Skip micro-benchmarks.")

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.")

let cmd =
  Cmd.v
    (Cmd.info "scalana-bench"
       ~doc:"Regenerate every table and figure of the ScalAna paper")
    Term.(const run $ only_arg $ fast_arg $ no_bech_arg $ list_arg)

let () = exit (Cmd.eval' cmd)
