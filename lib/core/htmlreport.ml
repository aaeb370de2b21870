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

(* Per-rank bar chart as inline SVG over the row slice [off, off + len)
   of [col]; deviating ranks highlighted. *)
let svg_bars ?(width = 640) ?(height = 80) ~hot col ~off ~len =
  (* quarantined values (NaN / negative) render as empty bars instead of
     breaking the SVG geometry *)
  let values =
    Array.init len (fun i ->
        let v = col.(off + i) in
        if Float.is_nan v || v < 0.0 then 0.0 else v)
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

let render (pipe : Pipeline.t) =
  let psg = Static.psg pipe.static in
  let program = pipe.static.Static.program in
  let _, largest_ppg = Scalana_ppg.Crossscale.largest pipe.crossscale in
  let buf = Buffer.create 16384 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out
    "<!doctype html><html><head><meta charset=\"utf-8\"><title>ScalAna — \
     %s</title><style>%s</style></head><body>"
    (esc program.pname) css;
  out "<h1>ScalAna scaling-loss report — %s</h1>" (esc program.pname);
  out "<p class=\"meta\">scales: %s · detection cost %.3fs · %d paths</p>"
    (String.concat ", "
       (List.map string_of_int (Scalana_ppg.Crossscale.scales pipe.crossscale)))
    pipe.detect_seconds
    (List.length pipe.analysis.paths);

  (* degraded inputs announce themselves before any verdict; clean
     pipelines skip the section entirely *)
  let q = pipe.Pipeline.quality in
  if not (Quality.is_clean q) then begin
    out "<h2>Data quality</h2>";
    out "<p class=\"meta\">rank coverage %.1f%%</p>" (100.0 *. q.Quality.rank_coverage);
    if q.Quality.artifact_issues <> [] then begin
      out "<table><tr><th>artifact</th><th>damage</th>\
           <th>records salvaged</th></tr>";
      List.iter
        (fun (a : Quality.artifact_issue) ->
          out "<tr><td>%s</td><td>%s</td><td>%d</td></tr>"
            (esc (Filename.basename a.Quality.ai_path))
            (esc a.Quality.ai_detail) a.Quality.ai_kept)
        q.Quality.artifact_issues;
      out "</table>"
    end;
    if q.Quality.run_issues <> [] then begin
      out "<table><tr><th>scale</th><th>killed ranks</th>\
           <th>stranded ranks</th><th>left</th><th>joined</th>\
           <th>epochs</th><th>attempts</th><th>backoff</th></tr>";
      List.iter
        (fun (r : Quality.run_issue) ->
          let ranks = function
            | [] -> "—"
            | rs -> String.concat "," (List.map string_of_int rs)
          in
          out
            "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td>\
             <td>%s</td><td>%d</td><td>%s</td></tr>"
            r.Quality.ri_nprocs
            (esc (ranks r.Quality.ri_killed))
            (esc (ranks r.Quality.ri_stranded))
            (esc (ranks r.Quality.ri_left))
            (esc (ranks r.Quality.ri_joined))
            (if r.Quality.ri_epochs > 0 then string_of_int r.Quality.ri_epochs
             else "—")
            r.Quality.ri_attempts
            (if r.Quality.ri_backoff > 0.0 then
               Printf.sprintf "%.3fs" r.Quality.ri_backoff
             else "—"))
        q.Quality.run_issues;
      out "</table>"
    end;
    if q.Quality.dropped_scales <> [] then
      out "<p class=\"meta\">dropped scales: %s</p>"
        (esc
           (String.concat ", "
              (List.map string_of_int q.Quality.dropped_scales)));
    if q.Quality.quarantined_values > 0 then
      out "<p class=\"meta\">quarantined values: %d</p>"
        q.Quality.quarantined_values;
    if q.Quality.insufficient_vertices > 0 then
      out "<p class=\"meta\">vertices with insufficient data: %d</p>"
        q.Quality.insufficient_vertices
  end;

  (* pipeline self-cost, only when the observability layer collected it *)
  if pipe.Pipeline.phase_costs <> [] then begin
    out "<h2>Pipeline cost (self-observability)</h2>\
         <table><tr><th>phase</th><th>calls</th><th>total</th></tr>";
    List.iter
      (fun (name, calls, total) ->
        out "<tr><td>%s</td><td>%d</td><td>%.3fs</td></tr>" (esc name) calls
          total)
      pipe.Pipeline.phase_costs;
    out "</table>"
  end;

  let lint_locs = List.map (fun (f : Lint.finding) -> f.Lint.loc) pipe.lint in
  let crosscheck = pipe.analysis.Rootcause.crosscheck in
  out "<h2>Non-scalable vertices</h2><table><tr><th>vertex</th><th>location</th>\
       <th>slope</th><th>share</th><th>series</th>\
       <th>predicted statically</th>%s</tr>"
    (match crosscheck with
    | Some _ -> "<th>static model</th>"
    | None -> "");
  List.iter
    (fun (f : Nonscalable.finding) ->
      let v = Psg.vertex psg f.vertex in
      out
        "<tr><td>%s</td><td>%s</td><td>%+.2f</td><td>%.1f%%</td><td>%s</td>\
         <td>%s</td>%s</tr>"
        (esc (Vertex.label v))
        (esc (Loc.to_string v.Vertex.loc))
        f.slope (100.0 *. f.fraction)
        (esc
           (String.concat " → "
              (List.map (fun (n, t) -> Printf.sprintf "%d:%.3fs" n t) f.series)))
        (if Report.predicted ~psg ~locs:lint_locs f.vertex then "yes" else "—")
        (match crosscheck with
        | None -> ""
        | Some cx ->
            Printf.sprintf "<td>%s</td>"
              (match Crosscheck.verdict_for cx f.vertex with
              | Some verdict -> esc (String.trim (Crosscheck.annotation verdict))
              | None -> "—")))
    pipe.analysis.nonscalable;
  out "</table>";
  (match crosscheck with
  | None -> ()
  | Some cx ->
      out "<h2>Static model cross-check</h2>";
      out "<p class=\"meta\">scales %s · tolerance %.2f · %d confirmed · \
           %d mismatched%s</p>"
        (esc (String.concat ", " (List.map string_of_int cx.Crosscheck.cx_scales)))
        cx.Crosscheck.cx_tolerance
        (List.length (Crosscheck.confirmed cx))
        (List.length (Crosscheck.mismatches cx))
        (if cx.Crosscheck.cx_exact then ""
         else " · model approximate (walks hit unanalyzable constructs)");
      match Crosscheck.mismatches cx with
      | [] -> ()
      | mis ->
          out "<table><tr><th>vertex</th><th>location</th><th>predicted</th>\
               <th>model slope</th><th>measured slope</th></tr>";
          List.iter
            (fun (verdict : Crosscheck.verdict) ->
              let v = Psg.vertex psg verdict.Crosscheck.cv_vertex in
              out
                "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td>\
                 <td>%+.2f</td></tr>"
                (esc (Vertex.label v))
                (esc (Loc.to_string v.Vertex.loc))
                (esc verdict.Crosscheck.cv_pred.Scalana_cfg.Commcost.pred_label)
                (match verdict.Crosscheck.cv_model_slope with
                | Some m -> Printf.sprintf "%+.2f" m
                | None -> "?")
                verdict.Crosscheck.cv_measured_slope)
            mis;
          out "</table>");
  if pipe.lint <> [] then begin
    out "<h2>Static lint findings</h2><table><tr><th>rule</th>\
         <th>location</th><th>function</th><th>finding</th></tr>";
    List.iter
      (fun (f : Lint.finding) ->
        out "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>"
          (esc (Lint.rule_name f.Lint.rule))
          (esc (Loc.to_string f.Lint.loc))
          (esc f.Lint.func) (esc f.Lint.msg))
      pipe.lint;
    out "</table>"
  end;

  out "<h2>Abnormal vertices</h2>";
  List.iteri
    (fun i (f : Abnormal.finding) ->
      if i < 6 then begin
        let v = Psg.vertex psg f.vertex in
        out "<p><b>%s</b> @%s — %d deviating ranks, max %.4fs, median %.4fs</p>%s"
          (esc (Vertex.label v))
          (esc (Loc.to_string v.Vertex.loc))
          (List.length f.ranks) f.max_time f.median_time
          (match Scalana_ppg.Ppg.row_offset largest_ppg ~vertex:f.vertex with
          | Some off ->
              svg_bars ~hot:f.ranks (Scalana_ppg.Ppg.times_col largest_ppg)
                ~off ~len:largest_ppg.Scalana_ppg.Ppg.nprocs
          | None -> "")
      end)
    pipe.analysis.abnormal;

  out "<h2>Root causes</h2>";
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
      out "<h2>Wait states (timeline replay, np=%d)</h2>"
        ws.Waitstate.ws_nprocs;
      let blocked = Array.fold_left ( +. ) 0.0 ws.Waitstate.rank_blocked in
      out "<p class=\"meta\">blocked %.6fs across ranks · attributed %.1f%%</p>"
        blocked
        (100.0 *. Waitstate.attributed_fraction ws);
      out "%s"
        (svg_bars ~hot:[] ws.Waitstate.rank_blocked ~off:0
           ~len:(Array.length ws.Waitstate.rank_blocked));
      out "<table><tr><th>class</th><th>attributed</th></tr>";
      List.iter
        (fun (cls, total) ->
          out "<tr><td>%s</td><td>%.6fs</td></tr>"
            (esc (Waitstate.class_name cls))
            total)
        ws.Waitstate.class_totals;
      out "</table>";
      if ws.Waitstate.entries <> [] then begin
        out "<table><tr><th>vertex</th><th>location</th><th>class</th>\
             <th>time</th><th>ops</th><th>blamed ranks</th>\
             <th>flags</th></tr>";
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
        List.iteri
          (fun i (e : Waitstate.entry) ->
            if i < 12 then begin
              let label, loc =
                match e.ws_vertex with
                | Some vid ->
                    let v = Psg.vertex psg vid in
                    (Vertex.label v, Loc.to_string v.Vertex.loc)
                | None -> ("(unresolved)", "—")
              in
              let flags vid_opt =
                match vid_opt with
                | None -> "—"
                | Some vid ->
                    let f =
                      (if List.mem vid ns_vids then [ "non-scalable" ] else [])
                      @ if List.mem vid ab_vids then [ "abnormal" ] else []
                    in
                    if f = [] then "—" else String.concat ", " f
              in
              out
                "<tr><td>%s</td><td>%s</td><td>%s</td><td>%.6fs</td>\
                 <td>%d</td><td>%s</td><td>%s</td></tr>"
                (esc label) (esc loc)
                (esc (Waitstate.class_name e.ws_class))
                e.ws_time e.ws_ops
                (esc
                   (String.concat ","
                      (List.map
                         (fun (r, _) -> string_of_int r)
                         (List.filteri (fun i _ -> i < 8) e.ws_culprits))))
                (esc (flags e.ws_vertex))
            end)
          ws.Waitstate.entries;
        out "</table>"
      end;
      if ws.Waitstate.truncated > 0 then
        out "<p class=\"meta\">timeline truncated: %d events dropped · \
             %.6fs unattributed</p>"
          ws.Waitstate.truncated ws.Waitstate.unattributed);

  (* elastic membership timeline & recovery, only under --elastic *)
  List.iter
    (fun (np, (info : Scalana_runtime.Elastic.info)) ->
      let module E = Scalana_runtime.Elastic in
      let ranks = function
        | [] -> "—"
        | rs -> String.concat "," (List.map string_of_int rs)
      in
      out "<h2>Elastic membership timeline &amp; recovery (np=%d)</h2>" np;
      out
        "<p class=\"meta\">effective nprocs %.2f · %d epochs · %d ranks \
         ever member · recovery protocol %.6fs</p>"
        info.E.effective
        (List.length info.E.epoch_infos)
        info.E.n_ranks (E.recovery_seconds info);
      out "<table><tr><th>epoch</th><th>iters</th><th>np</th>\
           <th>members</th><th>span</th></tr>";
      List.iteri
        (fun i (e : E.epoch_info) ->
          out
            "<tr><td>%d</td><td>[%d,%d)</td><td>%d</td><td>%s</td>\
             <td>[%.6fs, %.6fs)</td></tr>"
            i e.E.ei_lo e.E.ei_hi e.E.ei_nprocs
            (esc (E.compress_ranks e.E.ei_members))
            e.E.ei_t0 e.E.ei_t1)
        info.E.epoch_infos;
      out "</table>";
      if info.E.recoveries <> [] then begin
        out "<table><tr><th>recovery at iter</th><th>left</th>\
             <th>joined</th><th>detect</th><th>agree</th>\
             <th>repartition</th><th>%s</th></tr>"
          (esc (Waitstate.class_name Waitstate.Recovery_stall));
        List.iter
          (fun (r : E.recovery) ->
            let stall =
              List.fold_left (fun acc (_, s) -> acc +. s) 0.0 r.E.r_stalls
            in
            out
              "<tr><td>%d</td><td>%s</td><td>%s</td><td>%.6fs</td>\
               <td>%.6fs</td><td>%.6fs</td><td>%.6fs</td></tr>"
              r.E.r_iter
              (esc (ranks r.E.r_left))
              (esc (ranks r.E.r_joined))
              r.E.r_detect r.E.r_agree r.E.r_repartition stall)
          info.E.recoveries;
        out "</table>"
      end)
    pipe.analysis.Rootcause.elastic;

  (* cross-session trend, only when a history ledger was loaded *)
  (match pipe.Pipeline.history with
  | [] -> ()
  | entries ->
      let module H = Scalana_obs.History in
      out "<h2>Trend (history ledger, %d entries)</h2>"
        (List.length entries);
      let first = List.hd entries in
      let latest = List.nth entries (List.length entries - 1) in
      out
        "<p class=\"meta\">commits %s .. %s · sparkline is the fitted \
         log-log slope per tracked vertex, oldest entry first</p>"
        (esc first.H.h_commit) (esc latest.H.h_commit);
      out "<table><tr><th>vertex</th><th>slope trend</th>\
           <th>latest slope</th></tr>";
      List.iter
        (fun key ->
          let series = H.slope_trend entries ~key in
          let latest_slope =
            List.fold_left
              (fun acc v -> match v with Some _ -> v | None -> acc)
              None series
          in
          out "<tr><td>%s</td><td><code>%s</code></td><td>%s</td></tr>"
            (esc key)
            (esc (H.sparkline series))
            (match latest_slope with
            | Some v -> Printf.sprintf "%+.2f" v
            | None -> "—"))
        (H.tracked_vertices entries);
      out "</table>");
  out "</body></html>";
  Buffer.contents buf

let write pipe ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render pipe))
