(* Computation cost model.

   Maps a workload descriptor (flops, load/store count, other
   instructions, locality) to retired-counter values and execution time on
   a given core.  Per-core speed heterogeneity — the Nekbone case's
   "memory access speed of each processor core differs" — is modeled as a
   deterministic per-rank multiplier on memory service time. *)

type t = {
  ghz : float;  (* core clock, cycles per nanosecond *)
  ipc : float;  (* retired instructions per cycle when hitting cache *)
  cache_miss_penalty : float;  (* extra cycles per missing access *)
  core_speed : int -> float;
      (* per-rank multiplier on memory service time; 1.0 = nominal *)
}

let default =
  {
    ghz = 2.5;
    ipc = 2.0;
    cache_miss_penalty = 120.0;
    core_speed = (fun _ -> 1.0);
  }

(* Deterministic heterogeneity with a heavy tail: most cores carry a
   small jitter, one core in sixteen serves memory twice as slowly (a
   slow DIMM / far NUMA node).  Small jobs are likely to land on fast
   cores only, so the scaling loss grows with the process count — the
   Nekbone case's shape. *)
let heterogeneous () =
  let speed rank =
    let h = ((rank * 2654435761) + 98765) asr 4 land 0xffff in
    if h mod 16 = 13 then 2.0
    else 1.0 +. (0.06 *. float_of_int (h mod 8) /. 8.0)
  in
  { default with core_speed = speed }

(* Evaluate already-computed workload counts on [rank]: writes the five
   PMU counters into [counters] (tot_ins, tot_lst_ins, tot_cyc,
   cache_miss, fp_ins — the field order of [Pmu.t]) and the wall seconds
   into slot 5.  [speeds] is [t.core_speed] tabulated per rank, built once
   per run.  The simulator calls this once per compute statement, so it
   makes no C call, no closure call and no allocation: counts are
   clamped with int comparisons (a polymorphic [max] is a call into
   [caml_greaterequal]), the speed is an array read, and the seconds go
   out through [counters] rather than as a boxed float return.  The
   arithmetic sequence is the model's contract and must not be
   reassociated. *)
let comp_cost_into t ~speeds ~rank ~(flops : int) ~(mem : int) ~(ints : int)
    ~locality ~counters =
  let flops = float_of_int (if flops > 0 then flops else 0) in
  let mem = float_of_int (if mem > 0 then mem else 0) in
  let ints = float_of_int (if ints > 0 then ints else 0) in
  let misses = mem *. (1.0 -. locality) in
  let tot_ins = flops +. mem +. ints in
  let base_cycles = tot_ins /. t.ipc in
  let miss_cycles = misses *. t.cache_miss_penalty *. speeds.(rank) in
  let tot_cyc = base_cycles +. miss_cycles in
  let seconds = tot_cyc /. (t.ghz *. 1e9) in
  counters.(0) <- tot_ins;
  counters.(1) <- mem;
  counters.(2) <- tot_cyc;
  counters.(3) <- misses;
  counters.(4) <- flops;
  counters.(5) <- seconds

(* Cost of re-touching [bytes] of repartitioned state on [rank] after an
   elastic membership change: a memory-bound pass at cache-line
   granularity, served at the rank's own memory speed — so a slow core
   stretches the whole recovery, exactly like it stretches a compute
   block.  Used by the elastic recovery protocol (Elastic.recover). *)
let repartition_cost t ~rank ~bytes =
  let lines = float_of_int (max 0 bytes) /. 64.0 in
  lines *. t.cache_miss_penalty *. t.core_speed rank /. (t.ghz *. 1e9)
