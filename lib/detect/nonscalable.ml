(* Non-scalable vertex detection (Section IV-A).

   For every vertex, merge its per-rank time at each job scale with the
   chosen strategy, fit the log–log model, and rank vertices by their
   slope (changing rate).  Vertices whose share of total time is
   negligible at the largest scale are filtered out first.

   Degraded mode: per-rank values poisoned by a fault (NaN/negative) are
   quarantined before merging, and a vertex that *lost* data only keeps a
   verdict when at least [min_points] clean scale points survive —
   otherwise it is reported as "insufficient data" instead of being
   silently ranked on a fit the faults could have bent.  Vertices with no
   quarantined data follow the original paper path untouched. *)

open Scalana_ppg

(* Declared before [finding] so the shared field names resolve to
   [finding] by default. *)
type evidence = {
  series : (int * float) list;  (* (nprocs, merged time) *)
  fit : Loglog.fit;
  at_largest : float;  (* clean time summed across ranks, largest scale *)
}

type finding = {
  vertex : int;
  slope : float;
  score : float;  (* slope - ideal slope; > 0 scales worse than ideal *)
  fraction : float;  (* share of total time at the largest scale *)
  fit : Loglog.fit;
  series : (int * float) list;  (* (nprocs, aggregated time) *)
}

(* A vertex whose data the faults damaged too much to rank honestly. *)
type insufficient = {
  ins_vertex : int;
  clean_points : int;  (* scale points that survived quarantine *)
  dropped_values : int;  (* per-rank values quarantined across scales *)
}

type result = {
  findings : finding list;  (* ranked, as before *)
  insufficient : insufficient list;
  quarantined_values : int;  (* total poisoned values dropped *)
  evidence : (int * evidence) list;  (* every touched vertex, ascending *)
}

type config = { strategy : Aggregate.strategy }

let default_config = { strategy = Aggregate.Mean }

(* The ranking's constants: vertices below [min_fraction] of the
   largest scale's time are ignored, only vertices at least [min_score]
   above the ideal slope are reported, at most [top_k] of them, and a
   vertex that lost data to quarantine needs [min_points] clean scale
   points for a verdict. *)
let min_fraction = 0.01
let top_k = 5
let min_score = 0.25
let min_points = 3

(* One vertex's scaling evidence, computed once per touched vertex by
   the detector and read back by Diff: its [strategy]-merged time at
   every scale, scanned in place over the vertex's row (no
   per-(vertex, scale) array materializes); the log-log fit of that
   series against *effective* scales (an elastic run's time-weighted
   mean membership replaces the nominal count on the P axis; for a
   fixed-membership run the two coincide bit for bit); and its clean
   time summed across ranks at the largest scale. *)
let evidence strategy (cs : Crossscale.t) ~vertex =
  let series =
    List.map
      (fun (n, ppg) ->
        match Ppg.times ppg ~vertex with
        | Some row -> (n, Aggregate.apply strategy row)
        | None -> (n, 0.0))
      cs.Crossscale.runs
  in
  Scalana_obs.Obs.Metrics.incr "loglog.fits";
  let fit =
    Loglog.fit_scaled
      (List.map
         (fun (n, t) -> (Crossscale.effective_scale cs ~nprocs:n, t))
         series)
  in
  let _, largest_ppg = Crossscale.largest cs in
  let at_largest =
    match Ppg.times largest_ppg ~vertex with
    | Some row -> Aggregate.sum_clean row
    | None -> 0.0
  in
  { series; fit; at_largest }

let detect_result ?(config = default_config) ?pool (cs : Crossscale.t) =
  Scalana_obs.Obs.with_span "nonscalable.detect" @@ fun () ->
  let _, largest_ppg = Crossscale.largest cs in
  let total = Ppg.total_time largest_ppg in
  (* per-vertex work is pure (a PPG's profile is never written after
     its build), so the aggregation + fit loop fans out across domains;
     parallel_map preserves input order, keeping the ranking stable *)
  let eval vertex =
    let dropped =
      List.fold_left
        (fun acc (_, ppg) ->
          match Ppg.times ppg ~vertex with
          | Some row -> acc + Aggregate.quarantined_in row
          | None -> acc)
        0 cs.Crossscale.runs
    in
    let ({ series; fit; at_largest } as ev : evidence) =
      evidence config.strategy cs ~vertex
    in
    let fraction = if total > 0.0 then at_largest /. total else 0.0 in
    let finding, insufficient =
      if fraction < min_fraction then (None, None)
      else if dropped > 0 && fit.Loglog.n < min_points then
        ( None,
          Some
            {
              ins_vertex = vertex;
              clean_points = fit.Loglog.n;
              dropped_values = dropped;
            } )
      else if fit.Loglog.n < 2 then (None, None)
      else
        let score = fit.slope -. Loglog.ideal_strong_scaling_slope in
        (Some { vertex; slope = fit.slope; score; fraction; fit; series }, None)
    in
    (finding, insufficient, dropped, (vertex, ev))
  in
  let touched = Crossscale.touched_vertices cs in
  (* the per-vertex aggregate+fit loop is the detection hot spot; its own
     span separates fitting cost from the surrounding ranking *)
  let evaluated =
    Scalana_obs.Obs.with_span
      ~args:[ ("vertices", string_of_int (List.length touched)) ]
      "loglog.fit_batch"
      (fun () -> Scalana_pool.Pool.parallel_map ?pool eval touched)
  in
  let findings = List.filter_map (fun (f, _, _, _) -> f) evaluated in
  let insufficient = List.filter_map (fun (_, i, _, _) -> i) evaluated in
  let quarantined_values =
    List.fold_left (fun acc (_, _, d, _) -> acc + d) 0 evaluated
  in
  let ranked =
    List.sort (fun a b -> compare b.score a.score) findings
    |> List.filter (fun f -> f.score >= min_score)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  {
    findings = take top_k ranked;
    insufficient;
    quarantined_values;
    evidence = List.map (fun (_, _, _, e) -> e) evaluated;
  }

let detect ?config cs = (detect_result ?config cs).findings

let pp_finding psg ppf f =
  let v = Scalana_psg.Psg.vertex psg f.vertex in
  Fmt.pf ppf "%-28s slope=%+.2f score=%.2f frac=%4.1f%% @%a"
    (Scalana_psg.Vertex.label v) f.slope f.score (100.0 *. f.fraction)
    Scalana_mlang.Loc.pp v.Scalana_psg.Vertex.loc

let pp_insufficient psg ppf i =
  let v = Scalana_psg.Psg.vertex psg i.ins_vertex in
  Fmt.pf ppf "%-28s %d clean scale point%s (%d value%s quarantined) @%a"
    (Scalana_psg.Vertex.label v) i.clean_points
    (if i.clean_points = 1 then "" else "s")
    i.dropped_values
    (if i.dropped_values = 1 then "" else "s")
    Scalana_mlang.Loc.pp v.Scalana_psg.Vertex.loc
