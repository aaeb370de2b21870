(* SST analogue (Section VI-D2).

   A conservative parallel discrete-event simulation: each step every
   rank drains its event queue, then synchronizes in
   RankSyncSerialSkip::exchange (point-to-point waitall followed by an
   allreduce).  The planted defect reproduces the paper's diagnosis: the
   handleEvent loop (mirandaCPU.cc:247 analogue) scans a pendingRequests
   *array* whose length grows with the number of peers, so per-event cost
   grows ~linearly with np (killing speedup) and differs across ranks
   (total instruction counts spread ~16x, Fig. 15).

   [optimized] is the paper's fix — an indexed map instead of the array
   scan: per-event cost drops to ~log(np) and is balanced across ranks. *)

open Scalana_mlang
open Expr.Infix

let make ?(optimized = false) () =
  let b = Builder.create ~file:"sst.mmp" ~name:"sst" () in
  Builder.param b "events" 6_000_000;  (* simulated events per step, total *)
  Builder.param b "scan" 12;  (* work per pending-request touch *)
  Builder.param b "nsteps" 24;
  Builder.param b "linkbytes" 60_000;
  (* pendingRequests length seen by one event: grows with peers for the
     array version, log for the map version; the array version also
     varies by rank (different components map to different ranks) *)
  let pending_cost =
    if optimized then p "scan" * (i 2 * log2 np + i 2)
    else p "scan" * min_ np (i 64) * (i 1 + (rank * i 37) % i 16) / i 8
  in
  Builder.func b "handle_event" (fun () ->
      [
        Builder.loop b ~label:"handleEvent_loop" ~var:"e" ~count:(i 40)
          (fun () ->
            [
              (* one chunk of events; cost folds the pendingRequests scan *)
              Builder.comp b ~label:"satisfyDependency" ~locality:0.72
                ~flops:(p "events" / np / i 40 * i 2)
                ~mem:(p "events" / np / i 40 * pending_cost / i 4)
                ();
            ]);
        (* serial global event-ordering bookkeeping: does not shrink
           with the process count (the "most events need to be executed
           sequentially" property the paper observes) *)
        Builder.comp b ~label:"clock_advance" ~locality:0.88
          ~flops:(i 2 * p "events")
          ~mem:(i 7 * p "events")
          ();
      ]);
  Builder.func b "exchange" (fun () ->
      (* rankSyncSerialSkip.cc:217 analogue *)
      Common.nonblocking_halo b ~tag:10 ~bytes:(p "linkbytes") ()
      @ [
          Builder.comp b ~label:"deserialize" ~locality:0.8
            ~flops:(p "linkbytes" / i 4)
            ~mem:(p "linkbytes" / i 8)
            ();
          (* rankSyncSerialSkip.cc:235 analogue *)
          Builder.allreduce b ~bytes:(i 8);
        ]);
  Builder.func b "main" (fun () ->
      Common.setup_phase b ~name:"setup" ~work:(p "events" / np / i 16) ()
      @ [
        Builder.comp b ~label:"build_graph" ~locality:0.8
          ~flops:(p "events" / np)
          ~mem:(p "events" / np / i 2)
          ();
        Builder.bcast b ~bytes:(i 128) ();
        Builder.loop b ~label:"sim_loop" ~var:"step" ~count:(p "nsteps")
          (fun () ->
            [ Builder.call b "handle_event"; Builder.call b "exchange" ]);
        Builder.allreduce b ~bytes:(i 16);
      ]);
  Builder.program b
