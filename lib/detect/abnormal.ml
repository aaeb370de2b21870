(* Abnormal vertex detection (Section IV-A).

   SPMD processes are expected to spend similar time at the same vertex;
   a vertex whose time on some rank deviates from the median by more than
   [abnorm_thd] (paper default 1.3) is abnormal.  A vertex executed by
   only a minority of ranks (median 0, some rank busy) is the classic
   load-imbalance shape and is abnormal too. *)

open Scalana_ppg

type finding = {
  vertex : int;
  ranks : int list;  (* the deviating ranks *)
  max_time : float;
  median_time : float;
  ratio : float;  (* max / median (infinity when median = 0) *)
}

type config = {
  abnorm_thd : float;
  min_seconds : float;  (* ignore vertices cheaper than this everywhere *)
}

let default_config = { abnorm_thd = 1.3; min_seconds = 1e-4 }

(* One vertex, scanned in place over its column slice: no per-vertex
   array materializes unless the vertex is actually reported on. *)
let detect_vertex ?(config = default_config) ppg ~vertex =
  match Ppg.row_offset ppg ~vertex with
  | None -> None  (* untouched everywhere: an all-zero row, never abnormal *)
  | Some off ->
      let col = Ppg.times_col ppg in
      let len = ppg.Ppg.nprocs in
      (* poisoned values are quarantined from the statistics; the
         deviation scan below skips them naturally (NaN/negative never
         exceed a positive threshold), so a faulted rank can't be
         flagged on garbage *)
      let max_time = Aggregate.max_clean col ~off ~len in
      if max_time < config.min_seconds then None
      else begin
        let med = Aggregate.median col ~off ~len in
        let threshold =
          if med > 0.0 then config.abnorm_thd *. med else 0.0
        in
        let deviating = ref [] in
        for rank = len - 1 downto 0 do
          if col.(off + rank) > threshold then deviating := rank :: !deviating
        done;
        let deviating = !deviating in
        if deviating = [] then None
        else
          Some
            {
              vertex;
              ranks = deviating;
              max_time;
              median_time = med;
              ratio = (if med > 0.0 then max_time /. med else infinity);
            }
      end

let detect ?(config = default_config) ppg =
  Scalana_obs.Obs.with_span "abnormal.detect" @@ fun () ->
  let findings =
    List.filter_map
      (fun vertex -> detect_vertex ~config ppg ~vertex)
      (Ppg.touched_vertices ppg)
    |> List.sort (fun a b -> compare b.max_time a.max_time)
  in
  Scalana_obs.Obs.Metrics.incr ~by:(List.length findings) "abnormal.findings";
  findings

let pp_finding psg ppf f =
  let v = Scalana_psg.Psg.vertex psg f.vertex in
  Fmt.pf ppf "%-28s ranks=%d max=%.4fs med=%.4fs ratio=%s @%a"
    (Scalana_psg.Vertex.label v) (List.length f.ranks) f.max_time f.median_time
    (if f.ratio = infinity then "inf" else Printf.sprintf "%.2f" f.ratio)
    Scalana_mlang.Loc.pp v.Scalana_psg.Vertex.loc
