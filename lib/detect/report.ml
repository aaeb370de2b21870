(* Textual root-cause report — the ScalAna-viewer of Section V rendered
   for a terminal: ranked root causes with calling paths (upper window)
   and source snippets (lower window). *)

open Scalana_psg

let pp_cause ~psg ?program ?crosscheck ppf (i, (c : Rootcause.cause)) =
  Fmt.pf ppf "#%d  %s @%a@." (i + 1) c.Rootcause.cause_label
    Scalana_mlang.Loc.pp c.cause_loc;
  Fmt.pf ppf "    paths=%d  total=%.4fs  imbalance=%s  culprit ranks=%s@."
    c.n_paths c.total_time
    (if c.imbalance = infinity then "inf"
     else Printf.sprintf "%.2fx" c.imbalance)
    (String.concat ","
       (List.map string_of_int
          (let rec take n = function
             | [] -> []
             | _ when n = 0 -> [ -1 ]
             | x :: r -> x :: take (n - 1) r
           in
           take 8 c.culprit_ranks)
          |> List.map (fun s -> if s = "-1" then "..." else s)));
  let v = Psg.vertex psg c.cause_vertex in
  let callpath = v.Vertex.callpath in
  if callpath <> [] then
    Fmt.pf ppf "    called via: %s@."
      (String.concat " > "
         (List.map Scalana_mlang.Loc.to_string callpath));
  (match program with
  | None -> ()
  | Some p ->
      List.iter
        (fun line -> Fmt.pf ppf "    %s@." line)
        (Scalana_mlang.Pretty.snippet ~context:1 p c.cause_loc));
  if c.wait_evidence <> [] then
    Fmt.pf ppf "    wait-state evidence: %s@."
      (String.concat ", "
         (List.map
            (fun (cls, t) ->
              Printf.sprintf "%s %.6fs" (Waitstate.class_name cls) t)
            c.wait_evidence));
  (match crosscheck with
  | Some cx when Crosscheck.confirms_path cx c.example_path ->
      Fmt.pf ppf
        "    confidence: raised (static model confirms the measured \
         scaling on this path)@."
  | _ -> ());
  Fmt.pf ppf "    backtracking path:@.      %a@."
    (Backtrack.pp_path psg) c.example_path

(* Was this vertex (or an enclosing structure) flagged by the static
   linter?  The lint anchors at source statements — often the loop
   around the communication the dynamic analysis blames — so the
   vertex's own location and its ancestors' locations both count. *)
let predicted ~psg ~locs vid =
  locs <> []
  &&
  let module Loc = Scalana_mlang.Loc in
  let matches id =
    let v = Psg.vertex psg id in
    List.exists (Loc.equal v.Vertex.loc) locs
  in
  matches vid || List.exists matches (Psg.ancestors psg vid)

(* Wait-state attribution from the timeline replay; rendered only when a
   timeline was recorded ([analysis.waitstate] set), so default reports
   are untouched.  Detected vertices are cross-referenced, and when the
   PPG is supplied each entry shows the profiler's sampled wait at the
   same vertex — the two were measured independently and should agree. *)
let pp_waitstate ~psg ?ppg (analysis : Rootcause.analysis) ppf
    (ws : Waitstate.t) =
  Fmt.pf ppf "@.-- wait states (timeline replay, np=%d) --@." ws.ws_nprocs;
  let blocked = Array.fold_left ( +. ) 0.0 ws.Waitstate.rank_blocked in
  Fmt.pf ppf "  blocked %.6fs across ranks, attributed %.1f%%@." blocked
    (100.0 *. Waitstate.attributed_fraction ws);
  List.iter
    (fun (cls, total) ->
      Fmt.pf ppf "    %-22s %10.6fs@." (Waitstate.class_name cls) total)
    ws.Waitstate.class_totals;
  let nonscalable_vids =
    List.map (fun (f : Nonscalable.finding) -> f.vertex) analysis.nonscalable
  in
  let abnormal_vids =
    List.map (fun (f : Abnormal.finding) -> f.vertex) analysis.abnormal
  in
  let tags vid =
    (if List.mem vid nonscalable_vids then "  [non-scalable]" else "")
    ^ if List.mem vid abnormal_vids then "  [abnormal]" else ""
  in
  let entries = ws.Waitstate.entries in
  if entries <> [] then begin
    Fmt.pf ppf "  top waiting vertices:@.";
    List.iteri
      (fun i (e : Waitstate.entry) ->
        if i < 8 then begin
          (match e.ws_vertex with
          | Some vid ->
              let v = Psg.vertex psg vid in
              Fmt.pf ppf "    %s @%a%s@." (Vertex.label v)
                Scalana_mlang.Loc.pp v.Vertex.loc (tags vid)
          | None -> Fmt.pf ppf "    (unresolved vertex)@.");
          Fmt.pf ppf "      %s  %.6fs  ops=%d  blames ranks %s@."
            (Waitstate.class_name e.ws_class)
            e.ws_time e.ws_ops
            (String.concat ","
               (List.map
                  (fun (r, _) -> string_of_int r)
                  (List.filteri (fun i _ -> i < 8) e.ws_culprits)));
          match (ppg, e.ws_vertex) with
          | Some ppg, Some vid ->
              Fmt.pf ppf "      sampled wait at vertex: %.6fs@."
                (Scalana_ppg.Ppg.total_wait ppg ~vertex:vid)
          | _ -> ()
        end)
      entries;
    if List.length entries > 8 then
      Fmt.pf ppf "    ... %d more entries@." (List.length entries - 8)
  end;
  if ws.Waitstate.truncated > 0 then
    Fmt.pf ppf
      "  note: timeline truncated (%d events dropped); %.6fs blocked time \
       left unattributed@."
      ws.Waitstate.truncated ws.Waitstate.unattributed

(* Membership timeline and recovery costs of an elastic session;
   rendered only when the pipeline attached elastic summaries, which
   only elastic runs carry, so fixed-membership reports have no such
   section.  Each recovery's stall line sums the survivors' stalls and
   blames the ranks that left or joined. *)
let pp_elastic ppf (elastic : (int * Scalana_runtime.Elastic.info) list) =
  let module E = Scalana_runtime.Elastic in
  let ranks = function
    | [] -> "none"
    | rs -> "{" ^ String.concat "," (List.map string_of_int rs) ^ "}"
  in
  List.iter
    (fun (np, (info : E.info)) ->
      Fmt.pf ppf "@.-- elastic membership timeline & recovery (np=%d) --@." np;
      Fmt.pf ppf
        "  effective nprocs: %.2f over %d epoch%s (%d rank%s ever member)@."
        info.E.effective
        (List.length info.E.epoch_infos)
        (if List.length info.E.epoch_infos = 1 then "" else "s")
        info.E.n_ranks
        (if info.E.n_ranks = 1 then "" else "s");
      List.iteri
        (fun i (e : E.epoch_info) ->
          Fmt.pf ppf
            "    epoch %d  iters [%d,%d)  np=%-3d  ranks %s  [%.6fs, %.6fs)@."
            i e.E.ei_lo e.E.ei_hi e.E.ei_nprocs
            (E.compress_ranks e.E.ei_members)
            e.E.ei_t0 e.E.ei_t1)
        info.E.epoch_infos;
      List.iter
        (fun (r : E.recovery) ->
          Fmt.pf ppf "  recovery at iter %d: left=%s joined=%s@." r.E.r_iter
            (ranks r.E.r_left) (ranks r.E.r_joined);
          Fmt.pf ppf "    detect=%.6fs  agree=%.6fs  repartition=%.6fs@."
            r.E.r_detect r.E.r_agree r.E.r_repartition;
          let total =
            List.fold_left (fun acc (_, s) -> acc +. s) 0.0 r.E.r_stalls
          in
          Fmt.pf ppf
            "    recovery-stall  %.6fs across %d survivor%s  blames ranks %s@."
            total
            (List.length r.E.r_stalls)
            (if List.length r.E.r_stalls = 1 then "" else "s")
            (ranks (r.E.r_left @ r.E.r_joined)))
        info.E.recoveries;
      Fmt.pf ppf "  recovery protocol time: %.6fs total@."
        (E.recovery_seconds info))
    elastic

(* Cross-session trend from the history ledger; rendered only when the
   caller loaded prior entries (--history), so default reports are
   untouched.  One sparkline per tracked vertex, oldest entry first —
   a vertex a given entry does not track leaves a gap. *)
let pp_trend ppf = function
  | [] -> ()
  | entries ->
      let module H = Scalana_obs.History in
      let n = List.length entries in
      Fmt.pf ppf "@.-- trend (history ledger, %d entr%s) --@." n
        (if n = 1 then "y" else "ies");
      let first = List.hd entries in
      let latest_entry = List.nth entries (n - 1) in
      Fmt.pf ppf "  commits %s .. %s@." first.H.h_commit
        latest_entry.H.h_commit;
      List.iter
        (fun key ->
          let series = H.slope_trend entries ~key in
          let latest =
            List.fold_left
              (fun acc v -> match v with Some _ -> v | None -> acc)
              None series
          in
          Fmt.pf ppf "  %-40s %s%s@." key (H.sparkline series)
            (match latest with
            | Some v -> Printf.sprintf "  latest %+.2f" v
            | None -> ""))
        (H.tracked_vertices entries)

(* The pipeline's own per-phase cost, from the self-observability layer;
   rendered only when tracing was on, so default reports are untouched. *)
let pp_phase_costs ppf = function
  | [] -> ()
  | phases ->
      Fmt.pf ppf "@.-- pipeline cost (self-observability) --@.";
      Fmt.pf ppf "  %-28s %7s %12s@." "phase" "calls" "total";
      List.iter
        (fun (name, calls, total) ->
          Fmt.pf ppf "  %-28s %7d %11.3fs@." name calls total)
        phases

let render ?program ?(predicted_locs = []) ?(quality = Quality.clean)
    ?(phase_costs = []) ?ppg ?(history = []) (analysis : Rootcause.analysis)
    ~psg =
  let buf = Buffer.create 2048 in
  let ppf = Fmt.with_buffer buf in
  Fmt.pf ppf "=== ScalAna scaling-loss report ===@.";
  (* degraded inputs announce themselves before any verdict; clean
     pipelines render exactly the original report *)
  if not (Quality.is_clean quality) then Quality.pp ppf quality;
  Fmt.pf ppf "@.-- non-scalable vertices (log-log slope ranking) --@.";
  List.iter
    (fun (f : Nonscalable.finding) ->
      (* the symbolic-model verdict supersedes the plain lint marker on
         rows it covers; rows without a prediction keep the old marker *)
      let crosscheck_annot =
        match analysis.Rootcause.crosscheck with
        | None -> None
        | Some cx ->
            Option.map Crosscheck.annotation
              (Crosscheck.verdict_for cx f.Nonscalable.vertex)
      in
      Fmt.pf ppf "  %a%s@." (Nonscalable.pp_finding psg) f
        (match crosscheck_annot with
        | Some a -> a
        | None ->
            if predicted ~psg ~locs:predicted_locs f.Nonscalable.vertex then
              "  [predicted statically]"
            else ""))
    analysis.Rootcause.nonscalable;
  Option.iter
    (fun cx -> Crosscheck.pp psg ppf cx)
    analysis.Rootcause.crosscheck;
  if analysis.Rootcause.insufficient <> [] then begin
    Fmt.pf ppf "@.-- vertices with insufficient data (not ranked) --@.";
    List.iter
      (fun i -> Fmt.pf ppf "  %a@." (Nonscalable.pp_insufficient psg) i)
      analysis.Rootcause.insufficient
  end;
  Fmt.pf ppf "@.-- abnormal vertices (AbnormThd deviation) --@.";
  List.iter
    (fun f -> Fmt.pf ppf "  %a@." (Abnormal.pp_finding psg) f)
    analysis.abnormal;
  Fmt.pf ppf "@.-- root causes (%d paths) --@."
    (List.length analysis.paths);
  List.iteri
    (fun i c ->
      pp_cause ~psg ?program ?crosscheck:analysis.Rootcause.crosscheck ppf
        (i, c))
    analysis.causes;
  Option.iter
    (pp_waitstate ~psg ?ppg analysis ppf)
    analysis.Rootcause.waitstate;
  if analysis.Rootcause.elastic <> [] then
    pp_elastic ppf analysis.Rootcause.elastic;
  pp_trend ppf history;
  pp_phase_costs ppf phase_costs;
  Fmt.flush ppf ();
  Buffer.contents buf
