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

type config = { abnorm_thd : float }

let default_config = { abnorm_thd = 1.3 }

(* Vertices cheaper than this on every rank are never abnormal. *)
let min_seconds = 1e-4

(* NaN would let only zero-median vertices through, and a threshold
   below 1 flags ranks under the median: refuse both. *)
let check_thd ~what thd =
  if not (Float.is_finite thd && thd >= 1.0) then
    Fmt.invalid_arg "%s %g: must be finite and >= 1" what thd

(* One vertex, scanned in place over its row: no per-vertex array
   materializes unless the vertex is actually reported on. *)
let detect_vertex ~config ppg ~vertex =
  match Ppg.times ppg ~vertex with
  | None -> None  (* untouched everywhere: an all-zero row, never abnormal *)
  | Some row ->
      (* poisoned values are quarantined from the statistics; the
         deviation scan below skips them naturally (NaN/negative never
         exceed a positive threshold), so a faulted rank can't be
         flagged on garbage *)
      let max_time = Aggregate.max_clean row in
      if max_time < min_seconds then None
      else begin
        let med = Aggregate.median row in
        let threshold =
          if med > 0.0 then config.abnorm_thd *. med else 0.0
        in
        let deviating = ref [] in
        for rank = Array.length row - 1 downto 0 do
          if row.(rank) > threshold then deviating := rank :: !deviating
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
  check_thd ~what:"Abnormal.detect: abnorm_thd" config.abnorm_thd;
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
