(* Static communication-cost analysis.

   Two cooperating interpreters over the MiniMPI AST derive, for every
   communication statement, its symbolic message count, per-message byte
   volume, destination-rank expression, and a scaling class:

   - a *symbolic* abstract interpreter (domain: [Symbolic]) propagates
     invocation counts interprocedurally over the [Callgraph] (argument
     bindings joined across call sites, Top on recursion) and evaluates
     per-statement execution counts from the natural-loop trip counts
     ([Symbolic.block_counts] over the CFG, refined by an AST walk that
     also tracks [let] bindings);
   - a *concrete* per-rank walker executes the program at a few probe
     scales to resolve what the polynomial domain cannot (rank
     arithmetic: xor partners, mod rings, grid neighbours), measuring
     each statement's network pressure so its scaling exponent can be
     recovered by {!Symbolic.fit_exponents}.

   Network pressure of a statement at scale [p] is its per-rank message
   count weighted by ring distance (dilation) for point-to-point
   operations, and by the standard tree/dissemination depths for
   collectives — the load the statement places on the interconnect.  A
   hypercube exchange sends only log2(p) messages per rank, but their
   distances sum to Theta(p): class O(p), which is exactly why such
   transposes stop scaling. *)

open Scalana_mlang

(* Model constants mirroring Network.default.  The cfg library sits
   below the runtime, so the two values are duplicated here; the
   crosscheck only compares log-log slopes, for which the absolute
   constants cancel. *)
let model_latency = 1.5e-6
let model_bandwidth = 10e9

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  if n <= 1 then 0 else go 0 1

let ring_dist np a b =
  let d = (b - a + np) mod np in
  min d (np - d)

(* ------------------------------------------------------------------ *)
(* Concrete per-rank walker                                            *)
(* ------------------------------------------------------------------ *)

exception Out_of_fuel

type walk = {
  w_prog : Ast.program;
  w_np : int;
  mutable w_fuel : int;
  mutable w_exact : bool;
  mutable w_stack : string list;
  w_prune : (Loc.t, bool) Hashtbl.t;
  w_on_mpi :
    func:string -> loc:Loc.t -> rank:int -> eval:(Expr.t -> int) ->
    Ast.mpi_call -> unit;
}

let default_fuel = 300_000

(* A loop whose body performs no communication, calls nothing and binds
   no variables is invisible to every consumer below: skip it instead of
   iterating a 10^8-trip compute kernel. *)
let rec subtree_effectful w stmts = List.exists (stmt_effectful w) stmts

and stmt_effectful w (st : Ast.stmt) =
  match st.Ast.node with
  | Ast.Mpi _ | Ast.Call _ | Ast.Icall _ | Ast.Let _ -> true
  | Ast.Comp _ -> false
  | Ast.Loop l -> (
      match Hashtbl.find_opt w.w_prune st.Ast.loc with
      | Some v -> v
      | None ->
          let v = subtree_effectful w l.Ast.body in
          Hashtbl.replace w.w_prune st.Ast.loc v;
          v)
  | Ast.Branch b -> (
      match Hashtbl.find_opt w.w_prune st.Ast.loc with
      | Some v -> v
      | None ->
          let v = subtree_effectful w b.then_ || subtree_effectful w b.else_ in
          Hashtbl.replace w.w_prune st.Ast.loc v;
          v)

(* Variable slots are function-scoped and mutable, as in the runtime:
   a [let] or loop variable stays bound after its block ends. *)
let bind vars var v =
  let rec go = function
    | [] -> [ (var, v) ]
    | (n, _) :: rest when String.equal n var -> (n, v) :: rest
    | kv :: rest -> kv :: go rest
  in
  go vars

let rec exec_stmts w fname rank vars stmts =
  List.iter (exec_stmt w fname rank vars) stmts

and exec_stmt w fname rank vars (st : Ast.stmt) =
  if w.w_fuel <= 0 then begin
    w.w_exact <- false;
    raise Out_of_fuel
  end;
  w.w_fuel <- w.w_fuel - 1;
  let eval e =
    Expr.eval
      (Expr.env ~rank ~nprocs:w.w_np ~params:w.w_prog.Ast.params ~vars:!vars)
      e
  in
  match st.Ast.node with
  | Ast.Comp _ -> ()
  | Ast.Let { var; value } -> (
      match eval value with
      | v -> vars := bind !vars var v
      | exception Expr.Eval_error _ -> w.w_exact <- false)
  | Ast.Mpi c -> w.w_on_mpi ~func:fname ~loc:st.Ast.loc ~rank ~eval c
  | Ast.Loop l ->
      if stmt_effectful w st then (
        match eval l.Ast.count with
        | exception Expr.Eval_error _ -> w.w_exact <- false
        | n ->
            for iv = 0 to n - 1 do
              vars := bind !vars l.Ast.var iv;
              exec_stmts w fname rank vars l.Ast.body
            done)
  | Ast.Branch b -> (
      match eval b.cond with
      | exception Expr.Eval_error _ -> w.w_exact <- false
      | c -> exec_stmts w fname rank vars (if c <> 0 then b.then_ else b.else_))
  | Ast.Call { callee; args } -> (
      match Ast.find_func_opt w.w_prog callee with
      | None -> w.w_exact <- false
      | Some f ->
          let bound =
            List.filter_map
              (fun (name, e) ->
                match eval e with
                | v -> Some (name, v)
                | exception Expr.Eval_error _ ->
                    w.w_exact <- false;
                    None)
              args
          in
          exec_call w rank f bound)
  | Ast.Icall { selector; targets } -> (
      match eval selector with
      | exception Expr.Eval_error _ -> w.w_exact <- false
      | sel -> (
          let n = List.length targets in
          if n = 0 then w.w_exact <- false
          else
            let idx = ((sel mod n) + n) mod n in
            match Ast.find_func_opt w.w_prog (List.nth targets idx) with
            | None -> w.w_exact <- false
            | Some f -> exec_call w rank f []))

and exec_call w rank (f : Ast.func) bound =
  if List.mem f.Ast.fname w.w_stack || List.length w.w_stack > 32 then
    w.w_exact <- false
  else begin
    w.w_stack <- f.Ast.fname :: w.w_stack;
    Fun.protect
      ~finally:(fun () -> w.w_stack <- List.tl w.w_stack)
      (fun () -> exec_stmts w f.Ast.fname rank (ref bound) f.Ast.fbody)
  end

(* Runs every rank (or the given subset) through the program; returns
   whether the walk covered it exactly (no eval errors, unresolved calls
   or exhausted fuel). *)
let walk_program ?(fuel = default_fuel) ?ranks prog ~nprocs ~on_mpi =
  let w =
    {
      w_prog = prog;
      w_np = nprocs;
      w_fuel = fuel;
      w_exact = true;
      w_stack = [];
      w_prune = Hashtbl.create 32;
      w_on_mpi = on_mpi;
    }
  in
  let ranks =
    match ranks with Some rs -> rs | None -> List.init nprocs Fun.id
  in
  (match Ast.find_func_opt prog prog.Ast.main with
  | None -> w.w_exact <- false
  | Some main ->
      List.iter
        (fun rank ->
          w.w_fuel <- fuel;
          w.w_stack <- [];
          try exec_call w rank main [] with Out_of_fuel -> ())
        ranks);
  w.w_exact

(* ------------------------------------------------------------------ *)
(* Symbolic interprocedural propagation                                *)
(* ------------------------------------------------------------------ *)

type finfo = {
  mutable fi_inv : Symbolic.t;  (* symbolic invocations per program run *)
  mutable fi_ctx : (string * Symbolic.t) list;  (* formal bindings *)
}

(* AST walk of one function: per-statement count multiplier (product of
   enclosing trip counts) and the symbolic variable environment in scope
   — [let]s included, loop variables bound to their trip counts.  This
   refines the CFG/dominance counts (which cannot see [let]s) and
   supplies the environments for byte/destination expressions. *)
let scan_function prog ctx (f : Ast.func) =
  let mults = Hashtbl.create 32 in
  let envs = Hashtbl.create 32 in
  let comm = ref [] in
  let rec go vars mult stmts = ignore (List.fold_left (step mult) vars stmts)
  and step mult vars (st : Ast.stmt) =
    Hashtbl.replace mults st.Ast.loc mult;
    Hashtbl.replace envs st.Ast.loc vars;
    let env = Symbolic.env ~params:prog.Ast.params ~vars in
    match st.Ast.node with
    | Ast.Comp _ | Ast.Call _ | Ast.Icall _ -> vars
    | Ast.Let { var; value } -> (var, Symbolic.of_expr env value) :: vars
    | Ast.Mpi c ->
        comm := (st, c) :: !comm;
        vars
    | Ast.Loop l ->
        let trip = Symbolic.of_expr env l.Ast.count in
        go ((l.Ast.var, trip) :: vars) (Symbolic.mul mult trip) l.Ast.body;
        vars
    | Ast.Branch b ->
        go vars mult b.then_;
        go vars mult b.else_;
        vars
  in
  go ctx Symbolic.one f.Ast.fbody;
  (mults, envs, List.rev !comm)

(* Per-invocation execution count of the statement at [loc]: the
   CFG/loop-nest count when the domain could express it, the AST-walk
   multiplier otherwise. *)
let count_at_loc cfg_counts scan_mults loc =
  match Hashtbl.find_opt cfg_counts loc with
  | Some c when not (Symbolic.is_top c) -> c
  | cfg -> (
      match Hashtbl.find_opt scan_mults loc with
      | Some m -> m
      | None -> ( match cfg with Some c -> c | None -> Symbolic.top))

let cfg_loc_counts prog ctx (f : Ast.func) =
  let env = Symbolic.env ~params:prog.Ast.params ~vars:ctx in
  let cfg = Cfg.of_func f in
  let counts = Symbolic.block_counts env cfg in
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun (b : Cfg.block) ->
      (match b.Cfg.origin with
      | Cfg.Loop_header st | Cfg.Branch_cond st ->
          Hashtbl.replace tbl st.Ast.loc counts.(b.Cfg.id)
      | Cfg.Plain | Cfg.Loop_latch _ -> ());
      List.iter
        (fun (st : Ast.stmt) -> Hashtbl.replace tbl st.Ast.loc counts.(b.Cfg.id))
        b.Cfg.stmts)
    cfg.Cfg.blocks;
  tbl

let ctx_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && Symbolic.equal v1 v2)
       a b

(* Fixpoint over the SCC condensation, caller-first.  Invocation counts
   are recomputed from callers each pass (sums must not accumulate);
   argument bindings are joined.  Recursive functions and their contexts
   widen to Top immediately, so only the acyclic part iterates and the
   pass count is bounded by the condensation depth. *)
let interproc prog =
  let cg = Callgraph.build prog in
  let reach =
    List.filter (fun n -> Ast.find_func_opt prog n <> None)
      (Callgraph.reachable cg)
  in
  let infos = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let f = Ast.find_func prog name in
      let is_main = String.equal name prog.Ast.main in
      let init = if is_main then Symbolic.top else Symbolic.zero in
      Hashtbl.replace infos name
        {
          fi_inv = (if is_main then Symbolic.one else Symbolic.zero);
          fi_ctx = List.map (fun v -> (v, init)) f.Ast.fparams;
        })
    reach;
  let caller_first = List.rev (Callgraph.topo_order cg) in
  let order = List.filter (fun n -> Hashtbl.mem infos n) caller_first in
  let site_tables = Hashtbl.create 16 in
  let tables_of name =
    match Hashtbl.find_opt site_tables name with
    | Some t -> t
    | None ->
        let f = Ast.find_func prog name in
        let info = Hashtbl.find infos name in
        let cfg_counts = cfg_loc_counts prog info.fi_ctx f in
        let mults, envs, comm = scan_function prog info.fi_ctx f in
        let t = (cfg_counts, mults, envs, comm) in
        Hashtbl.replace site_tables name t;
        t
  in
  let site_count caller loc =
    let cfg_counts, mults, _, _ = tables_of caller in
    count_at_loc cfg_counts mults loc
  in
  let pass () =
    Hashtbl.reset site_tables;
    let changed = ref false in
    List.iter
      (fun name ->
        let info = Hashtbl.find infos name in
        (* invocations: recomputed from the callers *)
        let base =
          if String.equal name prog.Ast.main then Symbolic.one
          else Symbolic.zero
        in
        let inv =
          List.fold_left
            (fun acc (e : Callgraph.edge) ->
              match Hashtbl.find_opt infos e.Callgraph.caller with
              | None -> acc
              | Some ci ->
                  if Symbolic.is_zero ci.fi_inv then acc
                  else if Callgraph.in_same_scc cg e.Callgraph.caller name then
                    Symbolic.add acc Symbolic.top
                  else
                    Symbolic.add acc
                      (Symbolic.mul ci.fi_inv
                         (site_count e.Callgraph.caller e.Callgraph.site)))
            base (Callgraph.callers cg name)
        in
        let inv =
          if Callgraph.is_recursive cg name && not (Symbolic.is_zero inv) then
            Symbolic.top
          else inv
        in
        if not (Symbolic.equal inv info.fi_inv) then begin
          info.fi_inv <- inv;
          changed := true
        end;
        (* argument bindings: joined into the callees *)
        if not (Symbolic.is_zero info.fi_inv) then
          List.iter
            (fun (e : Callgraph.edge) ->
              match Hashtbl.find_opt infos e.Callgraph.callee with
              | None -> ()
              | Some ti ->
                  let recursive =
                    Callgraph.in_same_scc cg name e.Callgraph.callee
                  in
                  let supplied =
                    match Ast.stmt_at prog e.Callgraph.site with
                    | Some { Ast.node = Ast.Call { args; _ }; _ } -> args
                    | _ -> []
                  in
                  let _, _, envs, _ = tables_of name in
                  let vars =
                    match Hashtbl.find_opt envs e.Callgraph.site with
                    | Some vs -> vs
                    | None -> info.fi_ctx
                  in
                  let env = Symbolic.env ~params:prog.Ast.params ~vars in
                  let ctx' =
                    List.map
                      (fun (formal, old) ->
                        let v =
                          if recursive then Symbolic.top
                          else
                            match List.assoc_opt formal supplied with
                            | Some e -> Symbolic.of_expr env e
                            | None -> Symbolic.top  (* unbound at runtime *)
                        in
                        (formal, Symbolic.join old v))
                      ti.fi_ctx
                  in
                  if not (ctx_equal ctx' ti.fi_ctx) then begin
                    ti.fi_ctx <- ctx';
                    changed := true
                  end)
            (Callgraph.callees cg name))
      order;
    !changed
  in
  let rec run n = if pass () && n < 16 then run (n + 1) in
  run 0;
  Hashtbl.reset site_tables;
  (infos, order, tables_of)

(* ------------------------------------------------------------------ *)
(* Probing: network pressure at a few scales                           *)
(* ------------------------------------------------------------------ *)

(* Per-rank dilation weight of one dynamic execution. *)
let pressure_weight ~np ~rank ~eval (c : Ast.mpi_call) =
  let lg = float_of_int (log2_ceil np) in
  let hop dest = float_of_int (ring_dist np rank (eval dest)) in
  match c with
  | Ast.Send { dest; _ } | Ast.Isend { dest; _ } | Ast.Sendrecv { dest; _ } ->
      hop dest
  | Ast.Recv _ | Ast.Irecv _ | Ast.Wait _ | Ast.Waitall _ ->
      0.0  (* the sending side carries the dilation *)
  | Ast.Barrier | Ast.Bcast _ | Ast.Reduce _ -> lg
  | Ast.Allreduce _ -> 2.0 *. lg
  | Ast.Allgather _ | Ast.Alltoall _ -> float_of_int (max 1 (np - 1))

(* Hockney/tree model time of one dynamic execution, matching the
   simulator's Network shapes so the fitted model slope is comparable
   with the measured one. *)
let model_time ~np ~eval (c : Ast.mpi_call) =
  let lg = float_of_int (log2_ceil np) in
  let n = float_of_int (max 1 (np - 1)) in
  let b e = float_of_int (max 0 (eval e)) /. model_bandwidth in
  match c with
  | Ast.Send { bytes; _ } | Ast.Isend { bytes; _ }
  | Ast.Recv { bytes; _ } | Ast.Irecv { bytes; _ } ->
      model_latency +. b bytes
  | Ast.Sendrecv { sbytes; rbytes; _ } -> model_latency +. b sbytes +. b rbytes
  | Ast.Wait _ | Ast.Waitall _ -> 0.0
  | Ast.Barrier -> lg *. model_latency
  | Ast.Bcast { bytes; _ } | Ast.Reduce { bytes; _ } ->
      lg *. (model_latency +. b bytes)
  | Ast.Allreduce { bytes } -> 2.0 *. lg *. (model_latency +. b bytes)
  | Ast.Allgather { bytes } -> (lg *. model_latency) +. (n *. b bytes)
  | Ast.Alltoall { bytes } -> n *. (model_latency +. b bytes)

type probe = {
  pr_cost : (string * Loc.t, float array) Hashtbl.t;  (* per-rank pressure *)
  pr_np : int;
  pr_nranks : int;  (* ranks actually walked *)
}

(* Pressure is a per-rank mean, so large probe scales are walked on an
   evenly-strided subset of ranks: rank-symmetric idioms (hypercube
   rounds, shifted rings, grid halos) contribute the same mean, and the
   probe cost stays bounded as the scales grow instead of scaling with
   their sum.  The channel audit and the comm matrices still walk every
   rank — they need the full channel sets, not an average. *)
let probe_rank_cap = 16

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The stride must be coprime with np: a divisor stride on a row-major
   process grid samples a single column (e.g. stride 16 on a 16-wide
   grid hits only col 0, whose wraparound halo partner is the far edge),
   skewing the mean.  A coprime stride sweeps both grid dimensions. *)
let probe_ranks np =
  if np <= probe_rank_cap then List.init np Fun.id
  else
    let rec coprime s = if gcd s np = 1 then s else coprime (s + 1) in
    let stride = coprime (np / probe_rank_cap) in
    List.init probe_rank_cap (fun i -> i * stride mod np)

let probe_scale prog np =
  let ranks = probe_ranks np in
  let pr =
    { pr_cost = Hashtbl.create 64; pr_np = np; pr_nranks = List.length ranks }
  in
  let imprecise = ref false in
  let exact =
    walk_program prog ~nprocs:np ~ranks
      ~on_mpi:(fun ~func ~loc ~rank ~eval c ->
        let key = (func, loc) in
        let arr =
          match Hashtbl.find_opt pr.pr_cost key with
          | Some a -> a
          | None ->
              let a = Array.make np 0.0 in
              Hashtbl.replace pr.pr_cost key a;
              a
        in
        let wt =
          try pressure_weight ~np ~rank ~eval c
          with Expr.Eval_error _ ->
            imprecise := true;
            1.0
        in
        arr.(rank) <- arr.(rank) +. wt)
  in
  (pr, exact && not !imprecise)

(* Mean pressure per rank: robust against the lone wraparound rank of a
   ring-embedded grid inflating an otherwise-constant halo pattern. *)
let probe_samples probes key =
  List.map
    (fun pr ->
      let v =
        match Hashtbl.find_opt pr.pr_cost key with
        | None -> 0.0
        | Some arr ->
            Array.fold_left ( +. ) 0.0 arr /. float_of_int (max 1 pr.pr_nranks)
      in
      (pr.pr_np, v))
    probes

(* ------------------------------------------------------------------ *)
(* Communication matrices and pattern classification                   *)
(* ------------------------------------------------------------------ *)

let collect_matrices prog np =
  let matrices = Hashtbl.create 8 in
  let colls = Hashtbl.create 8 in
  let exact =
    walk_program prog ~nprocs:np ~on_mpi:(fun ~func ~loc:_ ~rank ~eval c ->
        let record dest =
          match eval dest with
          | d when d >= 0 && d < np && d <> rank ->
              let m =
                match Hashtbl.find_opt matrices func with
                | Some m -> m
                | None ->
                    let m = Array.make_matrix np np 0 in
                    Hashtbl.replace matrices func m;
                    m
              in
              m.(rank).(d) <- m.(rank).(d) + 1
          | _ -> ()
          | exception Expr.Eval_error _ -> ()
        in
        match c with
        | Ast.Send { dest; _ } | Ast.Isend { dest; _ }
        | Ast.Sendrecv { dest; _ } ->
            record dest
        | Ast.Recv _ | Ast.Irecv _ | Ast.Wait _ | Ast.Waitall _ -> ()
        | Ast.Barrier | Ast.Bcast _ | Ast.Reduce _ | Ast.Allreduce _
        | Ast.Allgather _ | Ast.Alltoall _ ->
            let seen =
              match Hashtbl.find_opt colls func with
              | Some s -> s
              | None ->
                  let s = Hashtbl.create 4 in
                  Hashtbl.replace colls func s;
                  s
            in
            Hashtbl.replace seen (Ast.mpi_name c) ())
  in
  (matrices, colls, exact)

let classify_pattern ~np pairs coll_names =
  if pairs = [] then
    if
      List.exists
        (fun c -> String.equal c "MPI_Alltoall" || String.equal c "MPI_Allgather")
        coll_names
    then "all-to-all"
    else if
      List.exists
        (fun c -> String.equal c "MPI_Bcast" || String.equal c "MPI_Reduce")
        coll_names
    then "root-centralized"
    else if coll_names <> [] then "collective"
    else "none"
  else
    let dist (s, d) = ring_dist np s d in
    let q = int_of_float (Float.round (sqrt (float_of_int np))) in
    if List.for_all (fun (sd, _) -> dist sd = 1) pairs then "ring"
    else if List.for_all (fun (sd, _) -> dist sd <= q) pairs then
      "nearest-neighbor"
    else if
      List.exists
        (fun r -> List.for_all (fun ((s, d), _) -> s = r || d = r) pairs)
        (List.init np Fun.id)
    then "root-centralized"
    else begin
      let partners = Array.make np 0 in
      List.iter (fun ((s, _), _) -> partners.(s) <- partners.(s) + 1) pairs;
      let senders = List.sort_uniq compare (List.map (fun ((s, _), _) -> s) pairs) in
      if List.for_all (fun s -> partners.(s) >= np - 1) senders then
        "all-to-all"
      else
        let count sd = match List.assoc_opt sd pairs with Some c -> c | None -> 0 in
        if List.for_all (fun ((s, d), c) -> count (d, s) = c) pairs then
          "transpose"
        else "irregular"
    end

let matrix_pairs m =
  let np = Array.length m in
  let pairs = ref [] in
  for s = np - 1 downto 0 do
    for d = np - 1 downto 0 do
      if m.(s).(d) > 0 then pairs := ((s, d), m.(s).(d)) :: !pairs
    done
  done;
  !pairs

(* ------------------------------------------------------------------ *)
(* Facts and analysis results                                          *)
(* ------------------------------------------------------------------ *)

type fact = {
  cc_func : string;
  cc_loc : Loc.t;
  cc_op : string;
  cc_msgs : Symbolic.t;
  cc_bytes : Symbolic.t;
  cc_dest : string option;
  cc_cls : Symbolic.cls;
}

type pred = {
  pred_label : string;
  pred_a : float;
  pred_b : float;
  pred_known : bool;
  pred_msgs : string;
  pred_bytes : string;
  pred_dest : string option;
  pred_pattern : string;
}

type t = {
  t_prog : Ast.program;
  t_exact : bool;
  t_facts : fact list;
  t_inv : (string * Symbolic.t) list;
  t_counts : (string * Loc.t, Symbolic.t) Hashtbl.t;
  t_patterns : (string * string) list;
  t_matrices : (string * int array array) list;
  t_matrix_np : int;  (* always [matrix_np]; kept for the stored layout *)
}

let bytes_expr (c : Ast.mpi_call) =
  match c with
  | Ast.Send { bytes; _ } | Ast.Isend { bytes; _ }
  | Ast.Recv { bytes; _ } | Ast.Irecv { bytes; _ }
  | Ast.Bcast { bytes; _ } | Ast.Reduce { bytes; _ }
  | Ast.Allreduce { bytes } | Ast.Alltoall { bytes }
  | Ast.Allgather { bytes } ->
      Some bytes
  | Ast.Sendrecv { sbytes; _ } -> Some sbytes
  | Ast.Wait _ | Ast.Waitall _ | Ast.Barrier -> None

let dest_expr (c : Ast.mpi_call) =
  match c with
  | Ast.Send { dest; _ } | Ast.Isend { dest; _ } | Ast.Sendrecv { dest; _ } ->
      Some dest
  | _ -> None

(* The scales network pressure is probed at, and the scale of the
   communication matrices. *)
let probe_scales = [ 16; 64; 256 ]
let matrix_np = 16

let analyze prog =
  let infos, order, tables_of = interproc prog in
  let probes, probe_exact =
    List.fold_left
      (fun (ps, ex) np ->
        let pr, e = probe_scale prog np in
        (pr :: ps, ex && e))
      ([], true) probe_scales
  in
  let probes = List.rev probes in
  let matrices_tbl, colls_tbl, matrix_exact = collect_matrices prog matrix_np in
  let exact = probe_exact && matrix_exact in
  (* program order for stable output *)
  let funcs_in_order =
    List.filter (fun (f : Ast.func) -> Hashtbl.mem infos f.Ast.fname)
      prog.Ast.funcs
  in
  let counts = Hashtbl.create 64 in
  let facts = ref [] in
  List.iter
    (fun (f : Ast.func) ->
      let info = Hashtbl.find infos f.Ast.fname in
      let cfg_counts, mults, envs, comm = tables_of f.Ast.fname in
      Hashtbl.iter
        (fun loc _ ->
          let per_inv = count_at_loc cfg_counts mults loc in
          Hashtbl.replace counts (f.Ast.fname, loc)
            (Symbolic.mul info.fi_inv per_inv))
        mults;
      List.iter
        (fun ((st : Ast.stmt), c) ->
          let loc = st.Ast.loc in
          let vars =
            match Hashtbl.find_opt envs loc with
            | Some vs -> vs
            | None -> info.fi_ctx
          in
          let env = Symbolic.env ~params:prog.Ast.params ~vars in
          let msgs =
            Symbolic.mul info.fi_inv (count_at_loc cfg_counts mults loc)
          in
          let bytes =
            match bytes_expr c with
            | None -> Symbolic.zero
            | Some e -> Symbolic.of_expr env e
          in
          let samples = probe_samples probes (f.Ast.fname, loc) in
          let cls =
            if not exact then Symbolic.Unknown
            else if List.for_all (fun (_, v) -> v <= 1e-12) samples then
              Symbolic.Cls { a = 0.0; b = 0.0 }
            else begin
              (* pressure that grows <1.5x across a 16x scale range is a
                 finite-size ripple (grid wraparound), not growth *)
              let vs = List.filter_map
                  (fun (_, v) -> if v > 0.0 then Some v else None) samples
              in
              let mx = List.fold_left Float.max neg_infinity vs in
              let mn = List.fold_left Float.min infinity vs in
              if mx /. mn < 1.5 then Symbolic.Cls { a = 0.0; b = 0.0 }
              else
                match Symbolic.fit_exponents samples with
                | Some cls -> cls
                | None -> Symbolic.Unknown
            end
          in
          facts :=
            {
              cc_func = f.Ast.fname;
              cc_loc = loc;
              cc_op = Ast.mpi_name c;
              cc_msgs = msgs;
              cc_bytes = bytes;
              cc_dest = Option.map Expr.to_string (dest_expr c);
              cc_cls = cls;
            }
            :: !facts)
        comm)
    funcs_in_order;
  let facts = List.rev !facts in
  let patterns =
    List.filter_map
      (fun (f : Ast.func) ->
        let name = f.Ast.fname in
        let pairs =
          match Hashtbl.find_opt matrices_tbl name with
          | Some m -> matrix_pairs m
          | None -> []
        in
        let coll_names =
          match Hashtbl.find_opt colls_tbl name with
          | Some s -> List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) s [])
          | None -> []
        in
        if pairs = [] && coll_names = [] then None
        else Some (name, classify_pattern ~np:matrix_np pairs coll_names))
      funcs_in_order
  in
  let matrices =
    List.filter_map
      (fun (f : Ast.func) ->
        Option.map
          (fun m -> (f.Ast.fname, m))
          (Hashtbl.find_opt matrices_tbl f.Ast.fname))
      funcs_in_order
  in
  let inv =
    List.filter_map
      (fun name ->
        Option.map (fun i -> (name, i.fi_inv)) (Hashtbl.find_opt infos name))
      order
  in
  {
    t_prog = prog;
    t_exact = exact;
    t_facts = facts;
    t_inv = inv;
    t_counts = counts;
    t_patterns = patterns;
    t_matrices = matrices;
    t_matrix_np = matrix_np;
  }

let facts t = t.t_facts
let exact t = t.t_exact
let invocations t = t.t_inv
let patterns t = t.t_patterns
let matrices t = t.t_matrices

let find_fact t ~func ~loc =
  List.find_opt
    (fun f -> String.equal f.cc_func func && Loc.equal f.cc_loc loc)
    t.t_facts

let count_at t ~func ~loc = Hashtbl.find_opt t.t_counts (func, loc)

let pred_of_cls cls ~msgs ~bytes ~dest ~pattern =
  let a, b, known =
    match (cls : Symbolic.cls) with
    | Symbolic.Cls { a; b } -> (a, b, true)
    | Symbolic.Unknown -> (0.0, 0.0, false)
  in
  {
    pred_label = Symbolic.cls_label cls;
    pred_a = a;
    pred_b = b;
    pred_known = known;
    pred_msgs = msgs;
    pred_bytes = bytes;
    pred_dest = dest;
    pred_pattern = pattern;
  }

let pred_of_fact t f =
  let pattern =
    match List.assoc_opt f.cc_func t.t_patterns with Some p -> p | None -> ""
  in
  pred_of_cls f.cc_cls
    ~msgs:(Symbolic.to_string f.cc_msgs)
    ~bytes:(Symbolic.to_string f.cc_bytes)
    ~dest:f.cc_dest ~pattern

let count_pred count =
  pred_of_cls (Symbolic.cls_of count)
    ~msgs:(Symbolic.to_string count)
    ~bytes:"" ~dest:None ~pattern:""

(* ------------------------------------------------------------------ *)
(* Model-time series for the dynamic crosscheck                        *)
(* ------------------------------------------------------------------ *)

let model_series prog ~scales =
  let acc = Hashtbl.create 64 in
  let order = ref [] in
  let exact =
    List.fold_left
      (fun ex np ->
        let e =
          walk_program prog ~nprocs:np ~on_mpi:(fun ~func ~loc ~rank:_ ~eval c ->
              let t = try model_time ~np ~eval c with Expr.Eval_error _ -> 0.0 in
              let key = (func, loc) in
              match Hashtbl.find_opt acc key with
              | Some tbl ->
                  let cur =
                    match Hashtbl.find_opt tbl np with Some v -> v | None -> 0.0
                  in
                  Hashtbl.replace tbl np (cur +. t)
              | None ->
                  let tbl = Hashtbl.create 4 in
                  Hashtbl.replace tbl np t;
                  Hashtbl.replace acc key tbl;
                  order := key :: !order)
        in
        ex && e)
      true scales
  in
  let series =
    List.rev_map
      (fun key ->
        let tbl = Hashtbl.find acc key in
        let points =
          List.map
            (fun np ->
              let total =
                match Hashtbl.find_opt tbl np with Some v -> v | None -> 0.0
              in
              (np, total /. float_of_int np))  (* mean per rank *)
            scales
        in
        (key, points))
      !order
  in
  (exact, series)

(* ------------------------------------------------------------------ *)
(* Channel audit for the interprocedural lints                         *)
(* ------------------------------------------------------------------ *)

type audit = {
  au_nprocs : int;
  au_exact : bool;
  au_sends : ((int * int * int) * (int * Loc.t * string)) list;
      (* (src, dst, tag) -> count, a contributing site *)
  au_recvs : ((int * int option * int option) * (int * Loc.t * string)) list;
      (* (dst, src?, tag?) -> count; None = wildcard *)
  au_colls : ((string * Loc.t) * (string * int array)) list;
      (* (func, loc) -> op name, per-rank execution counts *)
}

let audit prog ~nprocs =
  let sends = Hashtbl.create 64 in
  let recvs = Hashtbl.create 64 in
  let colls = Hashtbl.create 16 in
  let imprecise = ref false in
  let bump tbl key loc func =
    match Hashtbl.find_opt tbl key with
    | Some (n, l, f) -> Hashtbl.replace tbl key (n + 1, l, f)
    | None -> Hashtbl.replace tbl key (1, loc, func)
  in
  let exact =
    walk_program prog ~nprocs ~on_mpi:(fun ~func ~loc ~rank ~eval c ->
        let ev e = try Some (eval e) with Expr.Eval_error _ -> imprecise := true; None in
        let send dest tag =
          match (ev dest, ev tag) with
          | Some d, Some t when d >= 0 && d < nprocs ->
              bump sends (rank, d, t) loc func
          | _ -> imprecise := true
        in
        let recv (src : Ast.peer) (tag : Ast.tag) =
          let s =
            match src with
            | Ast.Any_source -> Some None
            | Ast.Peer e -> (
                match ev e with
                | Some v when v >= 0 && v < nprocs -> Some (Some v)
                | _ -> None)
          in
          let t =
            match tag with
            | Ast.Any_tag -> Some None
            | Ast.Tag e -> (
                match ev e with Some v -> Some (Some v) | None -> None)
          in
          match (s, t) with
          | Some s, Some t -> bump recvs (rank, s, t) loc func
          | _ -> imprecise := true
        in
        match c with
        | Ast.Send { dest; tag; _ } | Ast.Isend { dest; tag; _ } ->
            send dest tag
        | Ast.Recv { src; tag; _ } | Ast.Irecv { src; tag; _ } -> recv src tag
        | Ast.Sendrecv { dest; stag; src; rtag; _ } ->
            send dest stag;
            recv src rtag
        | Ast.Wait _ | Ast.Waitall _ -> ()
        | Ast.Barrier | Ast.Bcast _ | Ast.Reduce _ | Ast.Allreduce _
        | Ast.Allgather _ | Ast.Alltoall _ -> (
            let key = (func, loc) in
            match Hashtbl.find_opt colls key with
            | Some (_, arr) -> arr.(rank) <- arr.(rank) + 1
            | None ->
                let arr = Array.make nprocs 0 in
                arr.(rank) <- 1;
                Hashtbl.replace colls key (Ast.mpi_name c, arr)))
  in
  let dump tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  {
    au_nprocs = nprocs;
    au_exact = exact && not !imprecise;
    au_sends = List.sort compare (dump sends);
    au_recvs = List.sort compare (dump recvs);
    au_colls =
      List.sort
        (fun ((f1, l1), _) ((f2, l2), _) ->
          match String.compare f1 f2 with 0 -> Loc.compare l1 l2 | c -> c)
        (dump colls);
  }

(* ------------------------------------------------------------------ *)
(* Rendering (the `scalana-static --predict` section)                  *)
(* ------------------------------------------------------------------ *)

let render ppf t =
  Fmt.pf ppf "-- static predictions --@.";
  Fmt.pf ppf "symbolic model%s@."
    (if t.t_exact then "" else " (approximate: program not fully analyzable)");
  Fmt.pf ppf "@.invocations per run:@.";
  List.iter
    (fun (name, inv) -> Fmt.pf ppf "  %-24s %s@." name (Symbolic.to_string inv))
    t.t_inv;
  Fmt.pf ppf "@.communication statements:@.";
  Fmt.pf ppf "  %-14s %-14s %-12s %-18s %-18s %s@." "FUNC" "OP" "CLASS" "MSGS"
    "BYTES/MSG" "DEST";
  List.iter
    (fun f ->
      Fmt.pf ppf "  %-14s %-14s %-12s %-18s %-18s %s@." f.cc_func f.cc_op
        (Symbolic.cls_label f.cc_cls)
        (Symbolic.to_string f.cc_msgs)
        (Symbolic.to_string f.cc_bytes)
        (match f.cc_dest with Some d -> d | None -> "-"))
    t.t_facts;
  if t.t_patterns <> [] then begin
    Fmt.pf ppf "@.communication patterns:@.";
    List.iter
      (fun (name, pat) -> Fmt.pf ppf "  %-24s %s@." name pat)
      t.t_patterns
  end;
  List.iter
    (fun (name, m) ->
      Fmt.pf ppf "@.comm matrix (np=%d) %s:@." t.t_matrix_np name;
      Array.iter
        (fun row ->
          Fmt.string ppf " ";
          Array.iter
            (fun c ->
              if c = 0 then Fmt.pf ppf " %4s" "." else Fmt.pf ppf " %4d" c)
            row;
          Fmt.pf ppf "@.")
        m)
    t.t_matrices
