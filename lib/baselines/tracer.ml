(* Tracing baseline (the Scalasca/Vampir role), kept as its cost model.

   A tracer logs an enter/exit event pair for every region (computation
   block or MPI call) on every rank, with matched-peer payloads for
   receives.  Every event costs wrapper time on the traced process and
   a fixed number of trace-buffer bytes, which is where the paper's
   gigabytes-of-traces and tens-of-percent overheads come from.  Only
   the counts are kept: the rank timeline is the run's event record. *)

open Scalana_runtime

(* Seconds charged per logged event. *)
let per_event_cost = 1.2e-6

let bytes_per_event = 40

(* Granularity of compiler instrumentation: one traced sub-region per
   this many retired instructions inside a computation block, at most
   [max_sub_regions] per block.  Our Comp statements are coarse (whole
   solver phases); a tracing tool with automatic compiler
   instrumentation logs the many small functions inside them.  The cap
   models the Score-P-style filtering of hot tiny functions every
   tracing guide prescribes. *)
let ins_per_region = 2000.0
let max_sub_regions = 40_000

type t = { mutable n_events : int; mutable bytes : int }

let create () = { n_events = 0; bytes = 0 }

(* Each region contributes an enter and an exit record. *)
let log t ~records =
  let n = 2 + records in
  t.n_events <- t.n_events + n;
  t.bytes <- t.bytes + (n * bytes_per_event);
  float_of_int n *. per_event_cost

let on_interval t = function
  | Instrument.Compute { pmu; _ } ->
      let sub = int_of_float (pmu.Pmu.tot_ins /. ins_per_region) in
      let sub = if max_sub_regions <= sub then max_sub_regions else sub in
      log t ~records:(2 * sub)
  | Instrument.Mpi_span _ ->
      (* MPI regions are logged from on_mpi_exit, which carries peers. *)
      0.0

let tool t =
  {
    (Instrument.nil "tracer") with
    on_interval = (fun _ ~stop:_ act -> on_interval t act);
    on_mpi_exit =
      (fun _ (info : Instrument.mpi_exit) ->
        log t ~records:(List.length info.deps));
  }

let n_events t = t.n_events
let storage_bytes t = t.bytes
