(* Standalone HTML rendering of a finished pipeline — the ScalAna-viewer
   GUI of Fig. 9 as a self-contained file: the upper window (root-cause
   vertices with calling paths) and the lower window (source snippets),
   plus per-rank bar charts of the problematic vertices as inline SVG. *)

open Scalana_mlang
open Scalana_psg
open Scalana_detect

let esc s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let css =
  {|body{font-family:ui-monospace,Menlo,Consolas,monospace;margin:2em;
background:#fafafa;color:#222}
h1{font-size:1.3em}h2{font-size:1.1em;border-bottom:1px solid #ccc;
padding-bottom:.2em;margin-top:2em}
table{border-collapse:collapse;margin:.6em 0}
td,th{border:1px solid #ddd;padding:.25em .6em;text-align:left;
font-size:.85em}
th{background:#eee}
.cause{background:#fff;border:1px solid #ddd;border-left:4px solid #c33;
padding:.6em 1em;margin:.8em 0}
.path{color:#555;font-size:.8em;white-space:pre}
.snippet{background:#272822;color:#f8f8f2;padding:.5em .8em;font-size:.82em;
white-space:pre;overflow-x:auto;border-radius:4px}
.bar{fill:#4a7fb5}.bar.hot{fill:#c33}
.meta{color:#777;font-size:.85em}|}

(* Per-rank bar chart as inline SVG over [row], indexed by rank;
   deviating ranks highlighted. *)
let svg_bars ?(width = 640) ?(height = 80) ~hot row =
  (* quarantined values (NaN / negative) render as empty bars instead of
     breaking the SVG geometry *)
  let values =
    Array.map (fun v -> if Float.is_nan v || v < 0.0 then 0.0 else v) row
  in
  let n = Array.length values in
  if n = 0 then ""
  else begin
    let mx = Array.fold_left Float.max 1e-12 values in
    let bw = float_of_int width /. float_of_int n in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf
         "<svg width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"per-rank times\">"
         width height);
    Array.iteri
      (fun i v ->
        let h = v /. mx *. float_of_int (height - 4) in
        let cls = if List.mem i hot then "bar hot" else "bar" in
        Buffer.add_string buf
          (Printf.sprintf
             "<rect class=\"%s\" x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" \
              height=\"%.1f\"><title>rank %d: %.4fs</title></rect>"
             cls
             (float_of_int i *. bw)
             (float_of_int height -. h)
             (Float.max 1.0 (bw -. 1.0))
             h i v))
      values;
    Buffer.add_string buf "</svg>";
    Buffer.contents buf
  end

(* One table, a body row per item: every header and body cell is
   escaped here, so callers pass plain text; body cells in the [code]
   columns render as <code>. *)
let table buf ?(code = []) header row items =
  let cells tag code cells =
    Buffer.add_string buf "<tr>";
    List.iteri
      (fun i c ->
        if List.mem i code then
          Printf.bprintf buf "<%s><code>%s</code></%s>" tag (esc c) tag
        else Printf.bprintf buf "<%s>%s</%s>" tag (esc c) tag)
      cells;
    Buffer.add_string buf "</tr>"
  in
  Buffer.add_string buf "<table>";
  cells "th" [] header;
  List.iter (fun item -> cells "td" code (row item)) items;
  Buffer.add_string buf "</table>"

let ranks = function
  | [] -> "—"
  | rs -> String.concat "," (List.map string_of_int rs)

let render (pipe : Pipeline.t) =
  let psg = Static.psg pipe.static in
  let program = pipe.static.Static.program in
  let _, largest_ppg = Scalana_ppg.Crossscale.largest pipe.crossscale in
  let buf = Buffer.create 16384 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let h2 fmt = Printf.ksprintf (fun s -> out "<h2>%s</h2>" (esc s)) fmt in
  let meta fmt =
    Printf.ksprintf (fun s -> out "<p class=\"meta\">%s</p>" (esc s)) fmt
  in
  let table ?code header row items = table buf ?code header row items in
  out
    "<!doctype html><html><head><meta charset=\"utf-8\"><title>ScalAna — \
     %s</title><style>%s</style></head><body>"
    (esc program.pname) css;
  out "<h1>ScalAna scaling-loss report — %s</h1>" (esc program.pname);
  meta "scales: %s · detection cost %.3fs · %d paths"
    (String.concat ", "
       (List.map string_of_int (Scalana_ppg.Crossscale.scales pipe.crossscale)))
    pipe.detect_seconds
    (List.length pipe.analysis.paths);

  (* degraded inputs announce themselves before any verdict; clean
     pipelines skip the section entirely *)
  let q = pipe.Pipeline.quality in
  if not (Quality.is_clean q) then begin
    h2 "Data quality";
    meta "rank coverage %.1f%%" (100.0 *. q.Quality.rank_coverage);
    if q.Quality.artifact_issues <> [] then
      table
        [ "artifact"; "damage"; "records salvaged" ]
        (fun (a : Quality.artifact_issue) ->
          [
            Filename.basename a.Quality.ai_path;
            a.Quality.ai_detail;
            string_of_int a.Quality.ai_kept;
          ])
        q.Quality.artifact_issues;
    if q.Quality.run_issues <> [] then
      table
        [
          "scale"; "killed ranks"; "stranded ranks"; "left"; "joined";
          "epochs"; "attempts"; "backoff";
        ]
        (fun (r : Quality.run_issue) ->
          [
            string_of_int r.Quality.ri_nprocs;
            ranks r.Quality.ri_killed;
            ranks r.Quality.ri_stranded;
            ranks r.Quality.ri_left;
            ranks r.Quality.ri_joined;
            (if r.Quality.ri_epochs > 0 then
               string_of_int r.Quality.ri_epochs
             else "—");
            string_of_int r.Quality.ri_attempts;
            (if r.Quality.ri_backoff > 0.0 then
               Printf.sprintf "%.3fs" r.Quality.ri_backoff
             else "—");
          ])
        q.Quality.run_issues;
    if q.Quality.dropped_scales <> [] then
      meta "dropped scales: %s"
        (String.concat ", " (List.map string_of_int q.Quality.dropped_scales));
    if q.Quality.quarantined_values > 0 then
      meta "quarantined values: %d" q.Quality.quarantined_values;
    if q.Quality.insufficient_vertices > 0 then
      meta "vertices with insufficient data: %d"
        q.Quality.insufficient_vertices
  end;

  (* pipeline self-cost, only when the observability layer collected it *)
  if pipe.Pipeline.phase_costs <> [] then begin
    h2 "Pipeline cost (self-observability)";
    table [ "phase"; "calls"; "total" ]
      (fun (name, calls, total) ->
        [ name; string_of_int calls; Printf.sprintf "%.3fs" total ])
      pipe.Pipeline.phase_costs
  end;

  let lint_locs = List.map (fun (f : Lint.finding) -> f.Lint.loc) pipe.lint in
  let crosscheck = pipe.analysis.Rootcause.crosscheck in
  h2 "Non-scalable vertices";
  table
    ([
       "vertex"; "location"; "slope"; "share"; "series"; "predicted statically";
     ]
    @ if crosscheck = None then [] else [ "static model" ])
    (fun (f : Nonscalable.finding) ->
      let v = Psg.vertex psg f.vertex in
      [
        Vertex.label v;
        Loc.to_string v.Vertex.loc;
        Printf.sprintf "%+.2f" f.slope;
        Printf.sprintf "%.1f%%" (100.0 *. f.fraction);
        String.concat " → "
          (List.map (fun (n, t) -> Printf.sprintf "%d:%.3fs" n t) f.series);
        (if Report.predicted ~psg ~locs:lint_locs f.vertex then "yes"
         else "—");
      ]
      @
      match crosscheck with
      | None -> []
      | Some cx -> (
          match Crosscheck.verdict_for cx f.vertex with
          | Some verdict -> [ String.trim (Crosscheck.annotation verdict) ]
          | None -> [ "—" ]))
    pipe.analysis.nonscalable;
  (match crosscheck with
  | None -> ()
  | Some cx ->
      h2 "Static model cross-check";
      meta "scales %s · tolerance %.2f · %d confirmed · %d mismatched%s"
        (String.concat ", " (List.map string_of_int cx.Crosscheck.cx_scales))
        cx.Crosscheck.cx_tolerance
        (List.length (Crosscheck.confirmed cx))
        (List.length (Crosscheck.mismatches cx))
        (if cx.Crosscheck.cx_exact then ""
         else " · model approximate (walks hit unanalyzable constructs)");
      if Crosscheck.mismatches cx <> [] then
        table
          [
            "vertex"; "location"; "predicted"; "model slope"; "measured slope";
          ]
          (fun (verdict : Crosscheck.verdict) ->
            let v = Psg.vertex psg verdict.Crosscheck.cv_vertex in
            [
              Vertex.label v;
              Loc.to_string v.Vertex.loc;
              verdict.Crosscheck.cv_pred.Scalana_cfg.Commcost.pred_label;
              (match verdict.Crosscheck.cv_model_slope with
              | Some m -> Printf.sprintf "%+.2f" m
              | None -> "?");
              Printf.sprintf "%+.2f" verdict.Crosscheck.cv_measured_slope;
            ])
          (Crosscheck.mismatches cx));
  if pipe.lint <> [] then begin
    h2 "Static lint findings";
    table
      [ "rule"; "location"; "function"; "finding" ]
      (fun (f : Lint.finding) ->
        [
          Lint.rule_name f.Lint.rule;
          Loc.to_string f.Lint.loc;
          f.Lint.func;
          f.Lint.msg;
        ])
      pipe.lint
  end;

  h2 "Abnormal vertices";
  List.iteri
    (fun i (f : Abnormal.finding) ->
      if i < 6 then begin
        let v = Psg.vertex psg f.vertex in
        out "<p><b>%s</b> @%s — %d deviating ranks, max %.4fs, median %.4fs</p>%s"
          (esc (Vertex.label v))
          (esc (Loc.to_string v.Vertex.loc))
          (List.length f.ranks) f.max_time f.median_time
          (match Scalana_ppg.Ppg.times largest_ppg ~vertex:f.vertex with
          | Some row -> svg_bars ~hot:f.ranks row
          | None -> "")
      end)
    pipe.analysis.abnormal;

  h2 "Root causes";
  List.iteri
    (fun i (c : Rootcause.cause) ->
      out "<div class=\"cause\"><b>#%d %s</b> @%s<br>" (i + 1)
        (esc c.cause_label)
        (esc (Loc.to_string c.cause_loc));
      out "<span class=\"meta\">paths=%d · total %.4fs · imbalance %s · \
           culprit ranks %s</span>"
        c.n_paths c.total_time
        (if c.imbalance = infinity then "∞"
         else Printf.sprintf "%.2fx" c.imbalance)
        (esc (String.concat "," (List.map string_of_int c.culprit_ranks)));
      (match crosscheck with
      | Some cx when Crosscheck.confirms_path cx c.example_path ->
          out "<br><span class=\"meta\">confidence raised: static model \
               confirms the measured scaling on this path</span>"
      | _ -> ());
      if c.wait_evidence <> [] then
        out "<br><span class=\"meta\">wait-state evidence: %s</span>"
          (esc
             (String.concat ", "
                (List.map
                   (fun (cls, t) ->
                     Printf.sprintf "%s %.6fs" (Waitstate.class_name cls) t)
                   c.wait_evidence)));
      out "<div class=\"path\">%s</div>"
        (esc (Fmt.str "%a" (Backtrack.pp_path psg) c.example_path));
      out "<div class=\"snippet\">%s</div>"
        (esc
           (String.concat "\n" (Pretty.snippet ~context:2 program c.cause_loc)));
      out "</div>")
    pipe.analysis.causes;

  (* wait-state attribution, only when a timeline replay was attached *)
  (match pipe.analysis.Rootcause.waitstate with
  | None -> ()
  | Some ws ->
      h2 "Wait states (timeline replay, np=%d)" ws.Waitstate.ws_nprocs;
      let blocked = Array.fold_left ( +. ) 0.0 ws.Waitstate.rank_blocked in
      meta "blocked %.6fs across ranks · attributed %.1f%%" blocked
        (100.0 *. Waitstate.attributed_fraction ws);
      out "%s"
        (svg_bars ~hot:[] ws.Waitstate.rank_blocked);
      table [ "class"; "attributed" ]
        (fun (cls, total) ->
          [ Waitstate.class_name cls; Printf.sprintf "%.6fs" total ])
        ws.Waitstate.class_totals;
      if ws.Waitstate.entries <> [] then begin
        let ns_vids =
          List.map
            (fun (f : Nonscalable.finding) -> f.vertex)
            pipe.analysis.nonscalable
        in
        let ab_vids =
          List.map
            (fun (f : Abnormal.finding) -> f.vertex)
            pipe.analysis.abnormal
        in
        table
          [
            "vertex"; "location"; "class"; "time"; "ops"; "blamed ranks";
            "flags";
          ]
          (fun (e : Waitstate.entry) ->
            let label, loc, flags =
              match e.ws_vertex with
              | Some vid ->
                  let v = Psg.vertex psg vid in
                  let f =
                    (if List.mem vid ns_vids then [ "non-scalable" ] else [])
                    @ if List.mem vid ab_vids then [ "abnormal" ] else []
                  in
                  ( Vertex.label v,
                    Loc.to_string v.Vertex.loc,
                    if f = [] then "—" else String.concat ", " f )
              | None -> ("(unresolved)", "—", "—")
            in
            [
              label;
              loc;
              Waitstate.class_name e.ws_class;
              Printf.sprintf "%.6fs" e.ws_time;
              string_of_int e.ws_ops;
              String.concat ","
                (List.map
                   (fun (r, _) -> string_of_int r)
                   (List.filteri (fun i _ -> i < 8) e.ws_culprits));
              flags;
            ])
          (List.filteri (fun i _ -> i < 12) ws.Waitstate.entries)
      end;
      if ws.Waitstate.truncated > 0 then
        meta "timeline truncated: %d events dropped · %.6fs unattributed"
          ws.Waitstate.truncated ws.Waitstate.unattributed);

  (* elastic membership timeline & recovery, only for elastic runs *)
  List.iter
    (fun (np, (info : Scalana_runtime.Elastic.info)) ->
      let module E = Scalana_runtime.Elastic in
      h2 "Elastic membership timeline & recovery (np=%d)" np;
      meta
        "effective nprocs %.2f · %d epochs · %d ranks ever member · recovery \
         protocol %.6fs"
        info.E.effective
        (List.length info.E.epoch_infos)
        info.E.n_ranks (E.recovery_seconds info);
      table
        [ "epoch"; "iters"; "np"; "members"; "span" ]
        (fun (i, (e : E.epoch_info)) ->
          [
            string_of_int i;
            Printf.sprintf "[%d,%d)" e.E.ei_lo e.E.ei_hi;
            string_of_int e.E.ei_nprocs;
            E.compress_ranks e.E.ei_members;
            Printf.sprintf "[%.6fs, %.6fs)" e.E.ei_t0 e.E.ei_t1;
          ])
        (List.mapi (fun i e -> (i, e)) info.E.epoch_infos);
      if info.E.recoveries <> [] then
        table
          [
            "recovery at iter"; "left"; "joined"; "detect"; "agree";
            "repartition"; "recovery-stall";
          ]
          (fun (r : E.recovery) ->
            let stall =
              List.fold_left (fun acc (_, s) -> acc +. s) 0.0 r.E.r_stalls
            in
            [
              string_of_int r.E.r_iter; ranks r.E.r_left; ranks r.E.r_joined;
            ]
            @ List.map (Printf.sprintf "%.6fs")
                [ r.E.r_detect; r.E.r_agree; r.E.r_repartition; stall ])
          info.E.recoveries)
    pipe.analysis.Rootcause.elastic;

  (* cross-session trend, only when a history ledger was loaded *)
  (match pipe.Pipeline.history with
  | [] -> ()
  | entries ->
      let module H = Scalana_obs.History in
      h2 "Trend (history ledger, %d entries)" (List.length entries);
      let first = List.hd entries in
      let latest = List.nth entries (List.length entries - 1) in
      meta
        "commits %s .. %s · sparkline is the fitted log-log slope per \
         tracked vertex, oldest entry first"
        first.H.h_commit latest.H.h_commit;
      table ~code:[ 1 ]
        [ "vertex"; "slope trend"; "latest slope" ]
        (fun key ->
          let series = H.slope_trend entries ~key in
          let latest_slope =
            List.fold_left
              (fun acc v -> match v with Some _ -> v | None -> acc)
              None series
          in
          [
            key;
            H.sparkline series;
            (match latest_slope with
            | Some v -> Printf.sprintf "%+.2f" v
            | None -> "—");
          ])
        (H.tracked_vertices entries));
  out "</body></html>";
  Buffer.contents buf

let write pipe ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render pipe))
