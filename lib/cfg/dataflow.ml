(* Generic iterative forward dataflow over CFGs.

   A classic worklist solver: the client supplies a join-semilattice of
   facts and a per-block transfer function; the solver propagates facts
   from the entry over successor edges until a fixed point.  Blocks are
   seeded in reverse postorder, which reaches the fixed point in a
   handful of sweeps on the reducible graphs {!Cfg.of_func} produces.
   {!Defuse} instantiates it with reaching definitions. *)

module type LATTICE = sig
  type t

  val bottom : t  (* initial fact everywhere; must be a join identity *)
  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Solver (L : LATTICE) = struct
  type result = {
    input : L.t array;  (* fact entering each block *)
    output : L.t array;  (* fact leaving each block *)
    iterations : int;  (* worklist pops until the fixed point *)
  }

  let solve ~entry_fact ~transfer (cfg : Cfg.t) =
    let n = Cfg.n_blocks cfg in
    let preds = Cfg.predecessors cfg in
    let input = Array.make n L.bottom in
    let output = Array.make n L.bottom in
    let queue = Queue.create () in
    let queued = Array.make n false in
    let push id =
      if not queued.(id) then begin
        queued.(id) <- true;
        Queue.add id queue
      end
    in
    List.iter push (Cfg.reverse_postorder cfg);
    let iterations = ref 0 in
    while not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      queued.(id) <- false;
      incr iterations;
      let in_fact =
        List.fold_left
          (fun acc p -> L.join acc output.(p))
          (if id = cfg.Cfg.entry then entry_fact else L.bottom)
          preds.(id)
      in
      input.(id) <- in_fact;
      let out_fact = transfer id in_fact in
      if not (L.equal out_fact output.(id)) then begin
        output.(id) <- out_fact;
        List.iter push (Cfg.successors cfg id)
      end
    done;
    { input; output; iterations = !iterations }
end
