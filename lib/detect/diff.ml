(* Cross-session regression diffing.

   Vertices are aligned structurally — label + source location + call
   path — because vertex ids are session-local (a recompile or a
   source edit reorders them).  Alignment is tolerant by construction:
   a key present on one side only becomes `new` / `gone` instead of an
   error, which is what makes diffing across code changes useful.

   The per-vertex slope is recomputed here for every touched vertex
   by the detector's own computation ([Nonscalable.evidence]: same
   aggregation strategy, same effective-scale axis), not just for the
   top-k findings: a regression
   is most interesting precisely when a vertex that used to be below
   the reporting threshold climbs over it. *)

open Scalana_ppg
module Obs = Scalana_obs.Obs

type key = { k_label : string; k_loc : string; k_callpath : string list }

let key_string k =
  let base = Printf.sprintf "%s @%s" k.k_label k.k_loc in
  match k.k_callpath with
  | [] -> base
  | cp -> Printf.sprintf "%s via %s" base (String.concat ">" cp)

let key_of_vertex psg vid =
  let v = Scalana_psg.Psg.vertex psg vid in
  {
    k_label = Scalana_psg.Vertex.label v;
    k_loc = Scalana_mlang.Loc.to_string v.Scalana_psg.Vertex.loc;
    k_callpath =
      List.map Scalana_mlang.Loc.to_string v.Scalana_psg.Vertex.callpath;
  }

type vstat = {
  vs_slope : float option;
  vs_points : int;
  vs_coverage : float;
  vs_time : float;
  vs_wait : float;
  vs_fraction : float;
  vs_wait_mix : (string * float) list;
}

type summary = {
  s_label : string;
  s_program : string;
  s_scales : int list;
  s_degraded : bool;
  s_rank_coverage : float;
  s_total_time : float;
  s_wait_mix : (string * float) list;
  s_vertices : (key * vstat) list;
}

let summarize ?(label = "") ?(strategy = Aggregate.Mean) ~psg ~crossscale
    ~quality ?waitstate ~program () =
  Obs.with_span "diff.summarize" ~args:[ ("program", program) ] @@ fun () ->
  let cs = crossscale in
  let _, largest_ppg = Crossscale.largest cs in
  let total = Ppg.total_time largest_ppg in
  let eval vertex =
    let ({ fit; at_largest; _ } : Nonscalable.evidence) =
      Nonscalable.evidence strategy cs ~vertex
    in
    let wait_mix =
      match waitstate with
      | None -> []
      | Some ws ->
          List.map
            (fun (c, t) -> (Waitstate.class_name c, t))
            (Waitstate.vertex_evidence ws ~vertex)
    in
    {
      vs_slope = (if fit.Loglog.n >= 2 then Some fit.Loglog.slope else None);
      vs_points = fit.Loglog.n;
      vs_coverage = Ppg.coverage largest_ppg ~vertex;
      vs_time = at_largest;
      vs_wait = Ppg.total_wait largest_ppg ~vertex;
      vs_fraction = (if total > 0.0 then at_largest /. total else 0.0);
      vs_wait_mix = wait_mix;
    }
  in
  let vertices =
    List.map
      (fun vid -> (key_of_vertex psg vid, eval vid))
      (Crossscale.touched_vertices cs)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Obs.Metrics.incr ~by:(List.length vertices) "diff.vertices_summarized";
  {
    s_label = label;
    s_program = program;
    s_scales = Crossscale.scales cs;
    s_degraded = not (Quality.is_clean quality);
    s_rank_coverage = quality.Quality.rank_coverage;
    s_total_time = total;
    s_wait_mix =
      (match waitstate with
      | None -> []
      | Some ws ->
          List.map
            (fun (c, t) -> (Waitstate.class_name c, t))
            ws.Waitstate.class_totals);
    s_vertices = vertices;
  }

type thresholds = {
  slope_tol : float;
  time_tol : float;
  wait_tol : float;
  min_fraction : float;
}

let default_thresholds =
  { slope_tol = 0.10; time_tol = 0.25; wait_tol = 0.25; min_fraction = 0.01 }

type verdict = Regressed | Improved | Unchanged | New | Gone

let verdict_name = function
  | Regressed -> "regressed"
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | New -> "new"
  | Gone -> "gone"

type delta = {
  d_key : key;
  d_verdict : verdict;
  d_base : vstat option;
  d_cand : vstat option;
  d_slope_delta : float option;
  d_time_ratio : float;
  d_wait_ratio : float;
  d_reasons : string list;
}

type t = {
  base : summary;
  cand : summary;
  deltas : delta list;
  n_regressed : int;
  n_improved : int;
  n_unchanged : int;
  n_new : int;
  n_gone : int;
  n_skipped : int;
  degraded : bool;
  thresholds : thresholds;
}

(* All comparisons strict: a delta exactly at a tolerance is benign.
   Regressions win over improvements when a vertex moves both ways
   (e.g. slope worsens while absolute time drops). *)
let classify th (b : vstat) (c : vstat) =
  let slope_delta =
    match (b.vs_slope, c.vs_slope) with
    | Some sb, Some sc -> Some (sc -. sb)
    | _ -> None
  in
  let time_ratio = if b.vs_time > 0.0 then c.vs_time /. b.vs_time else 0.0 in
  let wait_ratio =
    if b.vs_wait > 1e-12 then c.vs_wait /. b.vs_wait else 0.0
  in
  let regress = ref [] and improve = ref [] in
  let push r msg = r := msg :: !r in
  (match slope_delta with
  | Some d when d > th.slope_tol ->
      push regress (Printf.sprintf "slope delta %+.2f > %+.2f" d th.slope_tol)
  | Some d when -.d > th.slope_tol ->
      push improve (Printf.sprintf "slope delta %+.2f" d)
  | _ -> ());
  (if b.vs_time > 0.0 then
     let rel = (c.vs_time -. b.vs_time) /. b.vs_time in
     if rel > th.time_tol then
       push regress
         (Printf.sprintf "time grew %.0f%% > %.0f%%" (100. *. rel)
            (100. *. th.time_tol))
     else if -.rel > th.time_tol then
       push improve (Printf.sprintf "time shrank %.0f%%" (-100. *. rel)));
  (if b.vs_wait > 1e-12 && c.vs_wait -. b.vs_wait > 1e-9 then
     let rel = (c.vs_wait -. b.vs_wait) /. b.vs_wait in
     if rel > th.wait_tol then
       push regress
         (Printf.sprintf "wait grew %.0f%% > %.0f%%" (100. *. rel)
            (100. *. th.wait_tol)));
  let verdict =
    if !regress <> [] then Regressed
    else if !improve <> [] then Improved
    else Unchanged
  in
  (verdict, slope_delta, time_ratio, wait_ratio, List.rev (!regress @ !improve))

let verdict_rank = function
  | Regressed -> 0
  | Improved -> 1
  | New -> 2
  | Gone -> 3
  | Unchanged -> 4

let severity d =
  let s = match d.d_slope_delta with Some v -> Float.abs v | None -> 0.0 in
  s +. Float.abs (d.d_time_ratio -. 1.0)

let compare_summaries ?(thresholds = default_thresholds) ~base ~cand () =
  Obs.with_span "diff.compare" @@ fun () ->
  let th = thresholds in
  let cand_tbl = Hashtbl.create (List.length cand.s_vertices) in
  List.iter (fun (k, v) -> Hashtbl.replace cand_tbl k v) cand.s_vertices;
  let base_tbl = Hashtbl.create (List.length base.s_vertices) in
  List.iter (fun (k, v) -> Hashtbl.replace base_tbl k v) base.s_vertices;
  let skipped = ref 0 in
  let eligible fraction = fraction >= th.min_fraction in
  let paired =
    List.filter_map
      (fun (k, b) ->
        match Hashtbl.find_opt cand_tbl k with
        | None -> None
        | Some c ->
            if eligible b.vs_fraction || eligible c.vs_fraction then begin
              let verdict, slope_delta, time_ratio, wait_ratio, reasons =
                classify th b c
              in
              Some
                {
                  d_key = k;
                  d_verdict = verdict;
                  d_base = Some b;
                  d_cand = Some c;
                  d_slope_delta = slope_delta;
                  d_time_ratio = time_ratio;
                  d_wait_ratio = wait_ratio;
                  d_reasons = reasons;
                }
            end
            else begin
              incr skipped;
              None
            end)
      base.s_vertices
  in
  let one_sided verdict stat k (v : vstat) =
    if eligible v.vs_fraction then
      Some
        {
          d_key = k;
          d_verdict = verdict;
          d_base = (if stat = `Base then Some v else None);
          d_cand = (if stat = `Cand then Some v else None);
          d_slope_delta = None;
          d_time_ratio = 0.0;
          d_wait_ratio = 0.0;
          d_reasons = [];
        }
    else begin
      incr skipped;
      None
    end
  in
  let gone =
    List.filter_map
      (fun (k, b) ->
        if Hashtbl.mem cand_tbl k then None else one_sided Gone `Base k b)
      base.s_vertices
  in
  let fresh =
    List.filter_map
      (fun (k, c) ->
        if Hashtbl.mem base_tbl k then None else one_sided New `Cand k c)
      cand.s_vertices
  in
  let deltas =
    List.sort
      (fun a b ->
        compare
          (verdict_rank a.d_verdict, -.severity a, a.d_key)
          (verdict_rank b.d_verdict, -.severity b, b.d_key))
      (paired @ gone @ fresh)
  in
  let count v = List.length (List.filter (fun d -> d.d_verdict = v) deltas) in
  let t =
    {
      base;
      cand;
      deltas;
      n_regressed = count Regressed;
      n_improved = count Improved;
      n_unchanged = count Unchanged;
      n_new = count New;
      n_gone = count Gone;
      n_skipped = !skipped;
      degraded = base.s_degraded || cand.s_degraded;
      thresholds = th;
    }
  in
  Obs.Metrics.incr ~by:(List.length deltas) "diff.vertices_aligned";
  Obs.Metrics.incr ~by:t.n_regressed "diff.regressed";
  Obs.Metrics.incr ~by:t.n_improved "diff.improved";
  Obs.Metrics.incr ~by:t.n_new "diff.new";
  Obs.Metrics.incr ~by:t.n_gone "diff.gone";
  t

let has_regressions t = t.n_regressed > 0

(* --- rendering --- *)

let pp_slope ppf = function
  | Some s -> Fmt.pf ppf "%+.2f" s
  | None -> Fmt.pf ppf "n/a"

let pp_session ppf (role, s) =
  Fmt.pf ppf "  %s: %s%s (scales %s%s)@." role
    (if s.s_label = "" then s.s_program else s.s_label)
    (if s.s_label = "" then "" else Printf.sprintf " [%s]" s.s_program)
    (String.concat "," (List.map string_of_int s.s_scales))
    (if s.s_degraded then "; DEGRADED" else "")

let pp_pair ppf d =
  match (d.d_base, d.d_cand) with
  | Some b, Some c ->
      Fmt.pf ppf "      slope %a -> %a%s  time %.4gs -> %.4gs%s@." pp_slope
        b.vs_slope pp_slope c.vs_slope
        (match d.d_slope_delta with
        | Some sd -> Printf.sprintf " (delta %+.2f)" sd
        | None -> "")
        b.vs_time c.vs_time
        (if d.d_time_ratio > 0.0 then
           Printf.sprintf " (%.2fx)" d.d_time_ratio
         else "");
      Fmt.pf ppf "      wait %.4gs -> %.4gs  coverage %.0f%% -> %.0f%%@."
        b.vs_wait c.vs_wait (100. *. b.vs_coverage) (100. *. c.vs_coverage);
      if d.d_reasons <> [] then
        Fmt.pf ppf "      triggers: %s@." (String.concat "; " d.d_reasons)
  | _ ->
      let v = match (d.d_base, d.d_cand) with
        | Some v, _ | _, Some v -> v
        | None, None -> assert false
      in
      Fmt.pf ppf "      slope %a  time %.4gs (%.1f%% of total)@." pp_slope
        v.vs_slope v.vs_time (100. *. v.vs_fraction)

let pp_group ppf t verdict title =
  let group = List.filter (fun d -> d.d_verdict = verdict) t.deltas in
  if group <> [] then begin
    Fmt.pf ppf "@.-- %s (%d) --@." title (List.length group);
    List.iter
      (fun d ->
        Fmt.pf ppf "  %s@." (key_string d.d_key);
        pp_pair ppf d)
      group
  end

let pp ppf t =
  Fmt.pf ppf "=== ScalAna session diff ===@.";
  pp_session ppf ("base", t.base);
  pp_session ppf ("cand", t.cand);
  Fmt.pf ppf
    "  thresholds: slope delta > %+.2f, time growth > %.0f%%, wait growth > \
     %.0f%%, min fraction %.1f%%@."
    t.thresholds.slope_tol
    (100. *. t.thresholds.time_tol)
    (100. *. t.thresholds.wait_tol)
    (100. *. t.thresholds.min_fraction);
  Fmt.pf ppf
    "  aligned %d vertices: %d regressed, %d improved, %d unchanged; %d new, \
     %d gone (%d below min fraction)@."
    (t.n_regressed + t.n_improved + t.n_unchanged)
    t.n_regressed t.n_improved t.n_unchanged t.n_new t.n_gone t.n_skipped;
  Fmt.pf ppf "  verdict: %s@."
    (if t.degraded then "DEGRADED INPUT"
     else if has_regressions t then
       Printf.sprintf "REGRESSION (%d vertices)" t.n_regressed
     else "CLEAN");
  pp_group ppf t Regressed "regressed";
  pp_group ppf t Improved "improved";
  pp_group ppf t New "new vertices";
  pp_group ppf t Gone "gone vertices"
