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

(* Membership annotation of one timeline row: ranks the run at this
   scale stranded.  Empty for a clean run, keeping those rows
   byte-identical. *)
let rank_annotation (pipeline : Pipeline.t) ~nprocs =
  let stranded =
    match List.assoc_opt nprocs pipeline.Pipeline.runs with
    | None -> []
    | Some (r : Prof.run) ->
        r.Prof.result.Scalana_runtime.Exec.stranded_ranks
  in
  fun rank -> if List.mem rank stranded then " [stranded]" else ""

(* ASCII rank-timeline view: one row per rank over [0, elapsed], each
   column showing the dominant activity in its time bucket ('=' compute,
   'M' MPI, 'w' MPI wait), with the per-rank blocked totals.  A poor
   man's Perfetto for terminals; the full detail lives in the Chrome
   trace written by [scalana-detect --rank-trace]. *)
let show_timeline (pipeline : Pipeline.t) =
  let width = 64 in
  match pipeline.Pipeline.timeline with
  | None ->
      "no timeline captured (run with --wait-states or ~timeline:true)\n"
  | Some tl ->
      let module T = Scalana_profile.Timeline in
      let buf = Buffer.create 4096 in
      let nprocs = T.nprocs tl and elapsed = T.elapsed tl in
      let span = if elapsed > 0.0 then elapsed else 1.0 in
      let col_dt = span /. float_of_int width in
      (* per (rank, column) occupancy of compute / MPI busy / MPI wait *)
      let occ = Array.init nprocs (fun _ -> Array.make_matrix width 3 0.0) in
      for i = 0 to T.n_intervals tl - 1 do
        let start = T.start tl i and stop = T.stop tl i in
        let mpi = T.is_mpi tl i and wait = T.wait tl i in
        let c0 = max 0 (int_of_float (start /. col_dt)) in
        let c1 = min (width - 1) (int_of_float (stop /. col_dt)) in
        for c = c0 to c1 do
          let lo = Float.max start (float_of_int c *. col_dt) in
          let hi = Float.min stop (float_of_int (c + 1) *. col_dt) in
          let d = Float.max 0.0 (hi -. lo) in
          let row = occ.(T.rank tl i).(c) in
          (* an MPI interval's wait share is charged as waiting time,
             the rest as busy MPI *)
          let dur = stop -. start in
          let wfrac = if dur > 0.0 then wait /. dur else 0.0 in
          if not mpi then row.(0) <- row.(0) +. d
          else begin
            row.(1) <- row.(1) +. (d *. (1.0 -. wfrac));
            row.(2) <- row.(2) +. (d *. wfrac)
          end
        done
      done;
      Buffer.add_string buf
        (Printf.sprintf
           "=== rank timeline (np=%d, %.6fs; '=' compute, 'M' mpi, 'w' \
            wait) ===\n"
           nprocs elapsed);
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
          let dropped = T.dropped tl rank in
          Buffer.add_string buf
            (Printf.sprintf "| blocked %.6fs%s%s\n" (T.blocked tl rank)
               (if dropped > 0 then
                  Printf.sprintf " (truncated: %d dropped)" dropped
                else "")
               (rank_annotation pipeline ~nprocs rank)))
        occ;
      Buffer.add_string buf
        (Printf.sprintf
           "%d intervals (%d merged away), %d matched messages\n"
           (T.n_intervals tl) (T.merged tl) (T.n_messages tl));
      Buffer.contents buf
