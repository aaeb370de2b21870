(* ScalAna-viewer: terminal rendering of a finished pipeline — the GUI of
   Fig. 9 flattened to text.  The upper window (root-cause vertices and
   calling paths) comes from the detection report; the lower window shows
   the source snippet of a selected cause. *)

open Scalana_mlang

let show ?(snippet_context = 2) (pipeline : Pipeline.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf pipeline.Pipeline.report;
  Buffer.add_string buf "\n=== source view ===\n";
  List.iteri
    (fun i (c : Scalana_detect.Rootcause.cause) ->
      Buffer.add_string buf
        (Printf.sprintf "\n[%d] %s @%s\n" (i + 1) c.cause_label
           (Loc.to_string c.cause_loc));
      List.iter
        (fun line ->
          Buffer.add_string buf ("  " ^ line);
          Buffer.add_char buf '\n')
        (Pretty.snippet ~context:snippet_context
           pipeline.Pipeline.static.Static.program c.cause_loc))
    pipeline.Pipeline.analysis.causes;
  Buffer.contents buf

(* ASCII rank-timeline view: one row per rank over [0, elapsed], each
   column showing the dominant activity in its time bucket ('=' compute,
   'M' MPI, 'w' MPI wait), with the per-rank blocked totals.  A poor
   man's Perfetto for terminals; the full detail lives in the Chrome
   trace written by [scalana-detect --rank-trace]. *)
(* Membership annotation of one timeline row: ranks the run at this
   scale stranded, and ranks an elastic session lost or gained.  Empty
   for a clean fixed-membership run, keeping those rows byte-identical. *)
let rank_annotation (pipeline : Pipeline.t) ~nprocs =
  match List.assoc_opt nprocs pipeline.Pipeline.runs with
  | None -> fun _ -> ""
  | Some (r : Prof.run) ->
      let stranded = r.Prof.result.Scalana_runtime.Exec.stranded_ranks in
      let left, joined =
        match r.Prof.elastic with
        | None -> ([], [])
        | Some (i : Scalana_runtime.Elastic.info) ->
            let module E = Scalana_runtime.Elastic in
            ( List.concat_map (fun (rc : E.recovery) -> rc.E.r_left)
                i.E.recoveries,
              List.concat_map (fun (rc : E.recovery) -> rc.E.r_joined)
                i.E.recoveries )
      in
      fun rank ->
        (if List.mem rank stranded then " [stranded]" else "")
        ^ (if List.mem rank left then " [left]" else "")
        ^ if List.mem rank joined then " [joined]" else ""

let show_timeline (pipeline : Pipeline.t) =
  let width = 64 in
  match pipeline.Pipeline.timeline with
  | None ->
      "no timeline captured (run with --wait-states or ~timeline:true)\n"
  | Some tl ->
      let module T = Scalana_profile.Timeline in
      let buf = Buffer.create 4096 in
      let span = if tl.T.elapsed > 0.0 then tl.T.elapsed else 1.0 in
      let col_dt = span /. float_of_int width in
      (* per (rank, column) occupancy of compute / MPI busy / MPI wait *)
      let occ = Array.init tl.T.nprocs (fun _ -> Array.make_matrix width 3 0.0) in
      Array.iter
        (fun (iv : T.interval) ->
          let ch, wait =
            match iv.T.iv_kind with
            | T.Compute _ -> (0, 0.0)
            | T.Mpi m -> (1, m.T.wait)
          in
          let c0 = max 0 (int_of_float (iv.T.iv_start /. col_dt)) in
          let c1 =
            min (width - 1) (int_of_float (iv.T.iv_stop /. col_dt))
          in
          for c = c0 to c1 do
            let lo = Float.max iv.T.iv_start (float_of_int c *. col_dt) in
            let hi =
              Float.min iv.T.iv_stop (float_of_int (c + 1) *. col_dt)
            in
            let d = Float.max 0.0 (hi -. lo) in
            let row = occ.(iv.T.iv_rank).(c) in
            (* an MPI interval's wait share is charged as waiting time,
               the rest as busy MPI *)
            let dur = iv.T.iv_stop -. iv.T.iv_start in
            let wfrac = if dur > 0.0 then wait /. dur else 0.0 in
            if ch = 0 then row.(0) <- row.(0) +. d
            else begin
              row.(1) <- row.(1) +. (d *. (1.0 -. wfrac));
              row.(2) <- row.(2) +. (d *. wfrac)
            end
          done)
        tl.T.intervals;
      Buffer.add_string buf
        (Printf.sprintf
           "=== rank timeline (np=%d, %.6fs; '=' compute, 'M' mpi, 'w' \
            wait) ===\n"
           tl.T.nprocs tl.T.elapsed);
      Array.iteri
        (fun rank rows ->
          Buffer.add_string buf (Printf.sprintf "rank %3d |" rank);
          Array.iter
            (fun (row : float array) ->
              let c =
                if row.(0) = 0.0 && row.(1) = 0.0 && row.(2) = 0.0 then ' '
                else if row.(2) >= row.(0) && row.(2) >= row.(1) then 'w'
                else if row.(1) >= row.(0) then 'M'
                else '='
              in
              Buffer.add_char buf c)
            rows;
          Buffer.add_string buf
            (Printf.sprintf "| blocked %.6fs%s%s\n" tl.T.blocked.(rank)
               (if tl.T.dropped.(rank) > 0 then
                  Printf.sprintf " (truncated: %d dropped)"
                    tl.T.dropped.(rank)
                else "")
               (rank_annotation pipeline ~nprocs:tl.T.nprocs rank)))
        occ;
      Buffer.add_string buf
        (Printf.sprintf
           "%d intervals (%d merged away), %d matched messages\n"
           (Array.length tl.T.intervals) tl.T.merged
           (Array.length tl.T.messages));
      Buffer.contents buf
