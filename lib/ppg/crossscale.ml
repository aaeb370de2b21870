(* Cross-scale container: PPGs of the same program at several job scales.

   Non-scalable vertex detection compares the performance of the vertex
   (the PSG is scale-invariant, Section IV-A) across these runs. *)

type t = {
  psg : Scalana_psg.Psg.t;
  runs : (int * Ppg.t) list;  (* sorted by nprocs ascending *)
}

(* Each scale's PPG is built from its own private profile against the
   shared read-only PSG, so the builds fan out across domains. *)
let create ?pool ~psg runs =
  Scalana_obs.Obs.with_span
    ~args:[ ("scales", string_of_int (List.length runs)) ]
    "crossscale.create"
  @@ fun () ->
  let runs =
    List.sort (fun (a, _) (b, _) -> compare a b) runs
    |> Scalana_pool.Pool.parallel_map ?pool (fun (n, data) ->
           (n, Ppg.build ~psg data))
  in
  { psg; runs }

let of_ppgs ~psg ppgs =
  { psg; runs = List.sort (fun (a, _) (b, _) -> compare a b) ppgs }

let scales t = List.map fst t.runs
let largest t = List.nth t.runs (List.length t.runs - 1)
let ppg_at t ~nprocs = List.assoc_opt nprocs t.runs

(* The effective process count of the run keyed by nominal scale
   [nprocs] — what an elastic session actually averaged over its
   membership epochs; the nominal value itself for a fixed run (or when
   the scale is unknown, so fits never see a hole).  A session whose
   ranks were all lost can leave a NaN or zero behind; degrade to the
   nominal scale rather than poison Loglog.fit_scaled's x-axis. *)
let effective_scale t ~nprocs =
  match ppg_at t ~nprocs with
  | Some ppg ->
      let e = Ppg.effective_nprocs ppg in
      if Float.is_finite e && e > 0.0 then e else float_of_int nprocs
  | None -> float_of_int nprocs

(* Vertices observed in any run. *)
let touched_vertices t =
  let seen = Hashtbl.create 128 in
  List.iter
    (fun (_, ppg) ->
      List.iter
        (fun vid -> Hashtbl.replace seen vid ())
        (Ppg.touched_vertices ppg))
    t.runs;
  Hashtbl.fold (fun vid () acc -> vid :: acc) seen [] |> List.sort compare
