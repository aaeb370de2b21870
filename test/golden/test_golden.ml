(* Golden-report regression harness.

   [test_golden.exe NAME] runs the full pipeline for registry program
   NAME at fixed seeds and scales and prints the text report; the dune
   rules in this directory diff that output against the checked-in
   snapshot [NAME.expected].  A legitimate report change is promoted
   with

     dune runtest --auto-promote

   which rewrites the snapshots in place.  Everything the report depends
   on is deterministic — simulated clocks, the default config seed, and
   fixed job scales — so any diff is a real behaviour change, not noise.
   In particular these snapshots pin down that the observability layer
   (lib/obs) leaves every report byte-identical while tracing is
   disabled, which is the default. *)

let max_np = 16

let scales entry = Scalana_apps.Registry.scales entry ~min_np:4 ~max_np

let pipeline ?(timeline = false) ?(crosscheck = false) name =
  let entry = Scalana_apps.Registry.find name in
  let config =
    { Scalana.Config.default with static_crosscheck = crosscheck }
  in
  Scalana.Pipeline.run ~config ~cost:entry.cost ~scales:(scales entry)
    ~timeline (entry.make ())

let report ?timeline ?crosscheck name =
  (pipeline ?timeline ?crosscheck name).Scalana.Pipeline.report

(* An elastic program is analysed as scalana-prof and scalana-detect do
   it: one [Prof.run_elastic] session per scale, then [detect_session]. *)
let elastic_pipeline name =
  let entry = Scalana_apps.Registry.find name in
  let plan = Option.get entry.elastic_plan in
  let static = Scalana.Static.analyze (entry.make ()) in
  let runs =
    List.map
      (fun nprocs ->
        ( nprocs,
          Scalana.Prof.run_elastic ~cost:entry.cost ~plan static ~nprocs () ))
      (scales entry)
  in
  Scalana.Pipeline.detect_session { Scalana.Artifact.static; runs; issues = [] }

(* The HTML meta line embeds the wall-clock detection cost — the one
   nondeterministic byte sequence in an otherwise simulated-clock
   rendering.  Pin it so the HTML snapshot diffs like the text ones. *)
let normalize_detect_cost html =
  let marker = "detection cost " in
  let n = String.length html and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub html i m = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> html
  | Some i ->
      let j = ref (i + m) in
      while !j < n && html.[!j] <> 's' do incr j done;
      String.sub html 0 (i + m) ^ "0.000" ^ String.sub html !j (n - !j)

(* The HTML report of a clean fixed-scale run with every optional section
   on: the rank timeline and the static cross-check, a three-entry
   history ledger behind the trend table and fixed pipeline-cost rows
   (the real ones are wall-clock).  Keys carry '>' and '&' so the trend
   table's escaping is pinned too. *)
let full_html name =
  let pipe = pipeline ~timeline:true ~crosscheck:true name in
  let entry i commit slopes =
    {
      Scalana_obs.History.h_time = 1.7e9 +. float_of_int i;
      h_commit = commit;
      h_label = "";
      h_program = name;
      h_scales = [ 4; 8; 16 ];
      h_slopes = slopes;
      h_waits = [ ("sampled", 0.5) ];
      h_degraded = false;
      h_coverage = 1.0;
      h_detect_seconds = 0.01;
    }
  in
  let history =
    [
      entry 0 "a1b2c3d" [ ("MPI_Allreduce @x.mmp:3", 0.10) ];
      entry 1 "b2c3d4e"
        [ ("MPI_Allreduce @x.mmp:3", 0.35); ("loop @x.mmp:7 via f>g", -0.90) ];
      entry 2 "c3d4e5f"
        [ ("MPI_Allreduce @x.mmp:3", 0.80); ("send & recv @x.mmp:9", 0.05) ];
    ]
  in
  let phase_costs =
    [
      ("pipeline.detect", 1, 0.25);
      ("ppg.build", 3, 0.125);
      ("report.render", 1, 0.004);
    ]
  in
  normalize_detect_cost
    (Scalana.Htmlreport.render
       { pipe with Scalana.Pipeline.history; phase_costs })

let () =
  match Sys.argv with
  | [| _; name |] -> print_string (report name)
  | [| _; name; "--wait-states" |] ->
      print_string (report ~timeline:true name)
  | [| _; name; "--static-crosscheck" |] ->
      print_string (report ~crosscheck:true name)
  | [| _; name; "--elastic" |] ->
      print_string (elastic_pipeline name).Scalana.Pipeline.report
  | [| _; name; "--elastic-html" |] ->
      print_string
        (normalize_detect_cost
           (Scalana.Htmlreport.render (elastic_pipeline name)))
  | [| _; name; "--full-html" |] -> print_string (full_html name)
  | _ ->
      prerr_endline
        "usage: test_golden.exe PROGRAM [--wait-states | --static-crosscheck \
         | --elastic | --elastic-html | --full-html]";
      exit 2
