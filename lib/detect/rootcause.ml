(* Root-cause extraction: run Algorithm 1's main driver (backtrack from
   every non-scalable vertex, then from every not-yet-scanned abnormal
   vertex), and distill the resulting paths into ranked root-cause
   candidates with their source locations. *)

open Scalana_psg
open Scalana_ppg

type cause = {
  cause_vertex : int;
  cause_loc : Scalana_mlang.Loc.t;
  cause_label : string;
  n_paths : int;  (* how many root-cause paths terminate here *)
  total_time : float;  (* summed across ranks at the largest scale *)
  imbalance : float;  (* max/median across ranks *)
  culprit_ranks : int list;
  example_path : Backtrack.path;
  wait_evidence : (Waitstate.clazz * float) list;
}

type analysis = {
  nonscalable : Nonscalable.finding list;
  abnormal : Abnormal.finding list;
  insufficient : Nonscalable.insufficient list;
      (* vertices too damaged by faults to rank *)
  quarantined_values : int;  (* poisoned per-rank values dropped *)
  evidence : (int * Nonscalable.evidence) list;
      (* every touched vertex's series and fit, ascending; Diff reads it *)
  paths : Backtrack.path list;
  causes : cause list;
  waitstate : Waitstate.t option;
  crosscheck : Crosscheck.t option;
      (* static-model cross-check; attached by the pipeline when
         requested, None by default so reports are unchanged *)
  elastic : (int * Scalana_runtime.Elastic.info) list;
      (* per-nominal-scale elastic-session summaries; the pipeline
         attaches each run's own, [] for fixed-membership runs *)
}

(* The root cause of a path: among the Comp/Loop vertices the walk
   visited, the one whose execution time *on the rank the walk was on*
   deviates most from the other ranks (weighted by magnitude, so a busy
   2x-deviating solver beats a tiny 3x-deviating setup block).  Vertices
   with no time on the visited rank cannot be causes.  Ties prefer the
   deeper (later) step, i.e. the origin of the delay chain. *)
let cause_score ppg (s : Backtrack.step) =
  match Ppg.times ppg ~vertex:s.Backtrack.vertex with
  | None -> 0.0
  | Some row ->
      let own = if s.rank < Array.length row then row.(s.rank) else 0.0 in
      if own <= 1e-9 || Aggregate.quarantined own then 0.0
      else begin
        let med = Aggregate.median row in
        let deviation = if med > 1e-9 then own /. med else 1000.0 in
        own *. deviation
      end

let terminal_cause ppg (path : Backtrack.path) =
  let psg = ppg.Ppg.psg in
  let best = ref None in
  List.iter
    (fun (s : Backtrack.step) ->
      let v = Psg.vertex psg s.Backtrack.vertex in
      if Vertex.is_comp v || Vertex.is_loop v then begin
        let score = cause_score ppg s in
        match !best with
        | Some (_, best_score) when best_score > score -> ()
        | _ -> if score > 0.0 then best := Some (s, score)
      end)
    path;
  Option.map fst !best

(* Pick the start rank for a problematic vertex: the rank spending the
   most time there (for collectives the wait concentrates on early
   arrivers, and the walk jumps to the true culprit).  Quarantined cells
   are skipped, so a poisoned rank 0 cannot pin the walk; rank 0 remains
   the answer only when no cell survives. *)
let start_rank ppg ~vertex =
  match Ppg.times ppg ~vertex with
  | None -> 0
  | Some row ->
      let best = ref (-1) in
      for r = 0 to Array.length row - 1 do
        let t = row.(r) in
        if (not (Aggregate.quarantined t)) && (!best < 0 || t > row.(!best))
        then best := r
      done;
      max 0 !best

let analyze ?(ns_config = Nonscalable.default_config)
    ?(ab_config = Abnormal.default_config)
    ?(bt_config = Backtrack.default_config) ?pool ?waitstate
    (cs : Crossscale.t) =
  Scalana_obs.Obs.with_span "rootcause.analyze" @@ fun () ->
  let _, ppg = Crossscale.largest cs in
  let psg = ppg.Ppg.psg in
  let ns_result = Nonscalable.detect_result ~config:ns_config ?pool cs in
  let nonscalable = ns_result.Nonscalable.findings in
  let abnormal = Abnormal.detect ~config:ab_config ppg in
  let visited = Hashtbl.create 256 in
  let paths = ref [] in
  (* Algorithm 1, lines 4-8: paths from non-scalable vertices *)
  List.iter
    (fun (f : Nonscalable.finding) ->
      let rank = start_rank ppg ~vertex:f.vertex in
      let p =
        Backtrack.backtrack ~config:bt_config ppg ~visited ~start_rank:rank
          ~start_vertex:f.vertex
      in
      if p <> [] then paths := p :: !paths)
    nonscalable;
  (* lines 9-12: abnormal vertices not yet scanned *)
  List.iter
    (fun (f : Abnormal.finding) ->
      let rank =
        match f.ranks with r :: _ -> r | [] -> start_rank ppg ~vertex:f.vertex
      in
      if not (Hashtbl.mem visited (rank, f.vertex)) then begin
        let p =
          Backtrack.backtrack ~config:bt_config ppg ~visited ~start_rank:rank
            ~start_vertex:f.vertex
        in
        if p <> [] then paths := p :: !paths
      end)
    abnormal;
  let paths = List.rev !paths in
  (* group path terminals into causes *)
  let tbl : (int, cause) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun path ->
      match terminal_cause ppg path with
      | None -> ()
      | Some s ->
          let vid = s.Backtrack.vertex in
          let v = Psg.vertex psg vid in
          let cause =
            match Hashtbl.find_opt tbl vid with
            | Some c ->
                (* accumulated newest-first while grouping; flipped into
                   first-appearance order when the causes are extracted
                   (appending per path is quadratic) *)
                {
                  c with
                  n_paths = c.n_paths + 1;
                  culprit_ranks =
                    (if List.mem s.Backtrack.rank c.culprit_ranks then
                       c.culprit_ranks
                     else s.Backtrack.rank :: c.culprit_ranks);
                }
            | None ->
                (* the cause row is read through the quarantine, so a
                   poisoned rank drops out of the total and the ratio
                   instead of turning both into NaN *)
                let total_time, imbalance =
                  match Ppg.times ppg ~vertex:vid with
                  | None -> (0.0, infinity)
                  | Some row ->
                      let med = Aggregate.median row in
                      ( Aggregate.sum_clean row,
                        if med > 0.0 then Aggregate.max_clean row /. med
                        else infinity )
                in
                {
                  cause_vertex = vid;
                  cause_loc = v.Vertex.loc;
                  cause_label = Vertex.label v;
                  n_paths = 1;
                  total_time;
                  imbalance;
                  culprit_ranks = [ s.Backtrack.rank ];
                  example_path = path;
                  wait_evidence =
                    (match waitstate with
                    | None -> []
                    | Some ws -> Waitstate.vertex_evidence ws ~vertex:vid);
                }
          in
          Hashtbl.replace tbl vid cause)
    paths;
  let causes =
    Hashtbl.fold
      (fun _ c acc -> { c with culprit_ranks = List.rev c.culprit_ranks } :: acc)
      tbl []
    |> List.sort (fun a b ->
           (* the paper sorts by execution time and imbalance *)
           compare
             (b.n_paths, b.total_time, b.imbalance)
             (a.n_paths, a.total_time, a.imbalance))
  in
  Scalana_obs.Obs.Metrics.incr ~by:(List.length paths) "backtrack.paths";
  Scalana_obs.Obs.Metrics.incr ~by:(List.length causes) "rootcause.causes";
  {
    nonscalable;
    abnormal;
    insufficient = ns_result.Nonscalable.insufficient;
    quarantined_values = ns_result.Nonscalable.quarantined_values;
    evidence = ns_result.Nonscalable.evidence;
    paths;
    causes;
    waitstate;
    crosscheck = None;
    elastic = [];
  }
