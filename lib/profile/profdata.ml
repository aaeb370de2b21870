(* The artifact of one profiled run: per-vertex rows of per-rank
   performance vectors, compressed communication-dependence records,
   indirect-call resolutions, and byte/overhead accounting.

   One vector per (rank, contracted-PSG vertex) (Section III-B1):
   estimated execution time (from sampling), sampled hardware counters,
   exact accumulated MPI wait time and invocation counts.  They are
   stored by vertex: the first report at a vertex allocates its row, one
   [nprocs]-wide array per field, and the profiler writes cells in
   place.  A vertex's across-rank values are thus one contiguous array,
   which the PPG and the detectors read without copying. *)

open Scalana_runtime

type icall_resolution = { callsite_vertex : int; target : string }

type row = {
  times : float array;
  samples : int array;
  pmu : Pmu.t array;
  waits : float array;
  calls : int array;
}

type t = {
  nprocs : int;
  mutable rows : row option array;  (* by vertex id, grown on demand *)
  comm : Commrec.t;
  icalls : (icall_resolution, unit) Hashtbl.t;
  mutable total_samples : int;
  mutable unattributed_samples : int;
  mutable elapsed : float;
  mutable mpi_calls_seen : int;
  mutable records_taken : int;
  mutable effective_nprocs : float;
      (* time-weighted mean membership; = float nprocs unless elastic *)
}

let create ~nprocs =
  {
    nprocs;
    rows = [||];
    comm = Commrec.create ();
    icalls = Hashtbl.create 8;
    total_samples = 0;
    unattributed_samples = 0;
    elapsed = 0.0;
    mpi_calls_seen = 0;
    records_taken = 0;
    effective_nprocs = float_of_int nprocs;
  }

let row t ~vertex =
  if vertex < Array.length t.rows then t.rows.(vertex) else None

(* Every writer adds a sample or a call, so no presence column is
   needed. *)
let reported r ~rank = r.samples.(rank) > 0 || r.calls.(rank) > 0

(* The row a write lands in, allocated on the vertex's first report. *)
let row_for t ~vertex =
  match row t ~vertex with
  | Some r -> r
  | None ->
      if vertex >= Array.length t.rows then begin
        let grown =
          Array.make (max (vertex + 1) (2 * Array.length t.rows)) None
        in
        Array.blit t.rows 0 grown 0 (Array.length t.rows);
        t.rows <- grown
      end;
      let n = t.nprocs in
      let r =
        {
          times = Array.make n 0.0;
          samples = Array.make n 0;
          pmu = Array.make n Pmu.zero;
          waits = Array.make n 0.0;
          calls = Array.make n 0;
        }
      in
      t.rows.(vertex) <- Some r;
      r

let add_sampled t ~rank ~vertex ~time ~samples ~scale ~pmu =
  let r = row_for t ~vertex in
  r.times.(rank) <- r.times.(rank) +. time;
  r.samples.(rank) <- r.samples.(rank) + samples;
  r.pmu.(rank) <- Pmu.add_scaled r.pmu.(rank) scale pmu

let add_wait t ~rank ~vertex ~wait =
  let r = row_for t ~vertex in
  r.waits.(rank) <- r.waits.(rank) +. wait;
  r.calls.(rank) <- r.calls.(rank) + 1

let record_icall t ~callsite_vertex ~target =
  Hashtbl.replace t.icalls { callsite_vertex; target } ()

let icall_resolutions t =
  Hashtbl.fold (fun r () acc -> r :: acc) t.icalls []

(* All vertices that received any data on any rank, ascending. *)
let touched_vertices t =
  let acc = ref [] in
  for vertex = Array.length t.rows - 1 downto 0 do
    if Option.is_some t.rows.(vertex) then acc := vertex :: !acc
  done;
  !acc

let count_reported r =
  let n = ref 0 in
  for rank = 0 to Array.length r.calls - 1 do
    if reported r ~rank then incr n
  done;
  !n

(* Fraction of ranks that reported at [vertex] — the per-vertex coverage
   used by degraded-mode detection (1.0 = every rank reported). *)
let coverage t ~vertex =
  match row t ~vertex with
  | Some r when t.nprocs > 0 ->
      float_of_int (count_reported r) /. float_of_int t.nprocs
  | _ -> 0.0

(* Fold one elastic epoch's profile (local ranks [0, src.nprocs)) into
   the session-wide artifact, renumbering ranks through [map] — local
   rank [l] of the epoch is global rank [map l].  Icalls are drained in
   sorted order so the destination layout depends on content alone. *)
let merge_renumbered ~into ~map (src : t) =
  Array.iteri
    (fun vertex -> function
      | None -> ()
      | Some s ->
          let d = row_for into ~vertex in
          for l = 0 to src.nprocs - 1 do
            if reported s ~rank:l then begin
              let g = map l in
              d.times.(g) <- d.times.(g) +. s.times.(l);
              d.samples.(g) <- d.samples.(g) + s.samples.(l);
              d.pmu.(g) <- Pmu.add d.pmu.(g) s.pmu.(l);
              d.waits.(g) <- d.waits.(g) +. s.waits.(l);
              d.calls.(g) <- d.calls.(g) + s.calls.(l)
            end
          done)
    src.rows;
  Commrec.merge_renumbered ~into:into.comm ~map src.comm;
  Hashtbl.fold (fun r () acc -> r :: acc) src.icalls []
  |> List.sort compare
  |> List.iter (fun r -> Hashtbl.replace into.icalls r ());
  into.total_samples <- into.total_samples + src.total_samples;
  into.unattributed_samples <- into.unattributed_samples + src.unattributed_samples;
  into.elapsed <- Float.max into.elapsed src.elapsed;
  into.mpi_calls_seen <- into.mpi_calls_seen + src.mpi_calls_seen;
  into.records_taken <- into.records_taken + src.records_taken

(* Serialized size model: a packed vector is vertex id + 5 floats +
   2 ints, 24 B. *)
let bytes_per_vector = 24

let storage_bytes t =
  let cells =
    Array.fold_left
      (fun acc -> function Some r -> acc + count_reported r | None -> acc)
      0 t.rows
  in
  (bytes_per_vector * cells)
  + Commrec.storage_bytes t.comm
  + (8 * Hashtbl.length t.icalls)
