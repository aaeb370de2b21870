(* Static communication-cost analysis.

   Two cooperating interpreters over the MiniMPI AST derive, for every
   communication statement, its symbolic message count, per-message byte
   volume, destination-rank expression, and a scaling class:

   - a *symbolic* abstract interpreter (domain: [Symbolic]) propagates
     invocation counts interprocedurally over the [Callgraph] (argument
     bindings joined across call sites, Top on recursion) and counts each
     statement's executions per invocation in one AST walk, from the
     trip counts of its enclosing loops with [let] bindings in scope;
   - a *concrete* per-rank walker executes the program at a few probe
     scales to resolve what the polynomial domain cannot (rank
     arithmetic: xor partners, mod rings, grid neighbours), measuring
     each statement's network pressure so its scaling exponent can be
     recovered by {!Symbolic.fit_exponents}.  It walks the simulator's
     own compiled form ([Scalana_runtime.Ir]), compiled once per walked
     scale, and tallies per MPI key into arrays.

   Network pressure of a statement at scale [p] is its per-rank message
   count weighted by ring distance (dilation) for point-to-point
   operations, and by the standard tree/dissemination depths for
   collectives — the load the statement places on the interconnect.  A
   hypercube exchange sends only log2(p) messages per rank, but their
   distances sum to Theta(p): class O(p), which is exactly why such
   transposes stop scaling. *)

open Scalana_mlang
module Network = Scalana_runtime.Network
module Ir = Scalana_runtime.Ir
module C = Expr.Compiled

let ring_dist np a b =
  let d = (b - a + np) mod np in
  min d (np - d)

(* ------------------------------------------------------------------ *)
(* Concrete per-rank walker                                            *)
(* ------------------------------------------------------------------ *)

exception Out_of_fuel

let default_fuel = 300_000

(* A walk of the program compiled at one scale ([Ir.compile]), one rank
   at a time.  Variable slots are function-scoped and mutable, as in the
   runtime: a [let] or loop variable stays bound after its block ends.
   Recursion is cut, so a function is never on the stack twice and each
   function keeps one frame per rank, cleared on entry.  Fuel is one
   unit per statement visited, a pruned loop or a branch included. *)
type walk = {
  w_ir : Ir.program;
  mutable w_fuel : int;
  mutable w_exact : bool;
  mutable w_depth : int;
  w_active : bool array;  (* by function id: on the call stack *)
  mutable w_envs : C.env array;  (* by function id: the rank's frames *)
  w_on_mpi : int -> C.env -> Ast.mpi_call -> Ir.cmpi -> unit;
      (* MPI key, the executing frame, the statement *)
}

let rec walk_block w env (body : Ir.cstmt array) =
  for i = 0 to Array.length body - 1 do
    walk_stmt w env (Array.unsafe_get body i)
  done

and walk_stmt w (env : C.env) (st : Ir.cstmt) =
  if w.w_fuel <= 0 then begin
    w.w_exact <- false;
    raise Out_of_fuel
  end;
  w.w_fuel <- w.w_fuel - 1;
  match st.Ir.snode with
  | Ir.KComp _ -> ()
  | Ir.KLet { slot; value } -> (
      match C.eval env value with
      | v ->
          env.C.c_vars.(slot) <- v;
          Bytes.set env.C.c_bound slot '\001'
      | exception Expr.Eval_error _ -> w.w_exact <- false)
  | Ir.KMpi { ast; op; key } -> w.w_on_mpi key env ast op
  (* A loop whose body performs no communication, calls nothing and
     binds no variables is invisible to every consumer below: skip it
     instead of iterating a 10^8-trip compute kernel. *)
  | Ir.KLoop { effects = false; _ } -> ()
  | Ir.KLoop { slot; count; body; effects = true } -> (
      match C.eval env count with
      | exception Expr.Eval_error _ -> w.w_exact <- false
      | n ->
          if n > 0 then begin
            Bytes.set env.C.c_bound slot '\001';
            for i = 0 to n - 1 do
              env.C.c_vars.(slot) <- i;
              walk_block w env body
            done
          end)
  | Ir.KBranch { cond; then_; else_ } -> (
      match C.eval env cond with
      | exception Expr.Eval_error _ -> w.w_exact <- false
      | c -> walk_block w env (if c <> 0 then then_ else else_))
  | Ir.KCall { callee; args; _ } -> walk_call w callee ~caller:env args
  | Ir.KCall_undef _ -> w.w_exact <- false
  | Ir.KIcall { selector; targets; _ } -> (
      match C.eval env selector with
      | exception Expr.Eval_error _ -> w.w_exact <- false
      | sel -> (
          let n = Array.length targets in
          if n = 0 then w.w_exact <- false
          else
            match snd targets.(((sel mod n) + n) mod n) with
            | None -> w.w_exact <- false
            | Some f -> walk_call w f ~caller:env [||]))

(* An argument that fails to evaluate stays unbound; of two arguments
   naming one slot, the first bound wins. *)
and walk_call w (f : Ir.cfunc) ~caller args =
  if w.w_active.(f.Ir.cf_id) || w.w_depth > 32 then w.w_exact <- false
  else begin
    let env = w.w_envs.(f.Ir.cf_id) in
    Bytes.fill env.C.c_bound 0 (Bytes.length env.C.c_bound) '\000';
    Array.iter
      (fun (slot, e) ->
        match C.eval caller e with
        | v ->
            if Bytes.get env.C.c_bound slot = '\000' then begin
              env.C.c_vars.(slot) <- v;
              Bytes.set env.C.c_bound slot '\001'
            end
        | exception Expr.Eval_error _ -> w.w_exact <- false)
      args;
    w.w_active.(f.Ir.cf_id) <- true;
    w.w_depth <- w.w_depth + 1;
    walk_block w env f.Ir.cf_body;
    w.w_depth <- w.w_depth - 1;
    w.w_active.(f.Ir.cf_id) <- false
  end

let compile prog ~nprocs = Ir.compile ~nprocs ~params:prog.Ast.params prog

let walker ir ~on_mpi =
  {
    w_ir = ir;
    w_fuel = 0;
    w_exact = true;
    w_depth = 0;
    w_active = Array.make (Array.length ir.Ir.funcs) false;
    w_envs = [||];
    w_on_mpi = on_mpi;
  }

(* Runs one rank through the program on a fresh fuel budget. *)
let walk_rank w rank =
  match w.w_ir.Ir.main with
  | None -> w.w_exact <- false
  | Some main -> (
      w.w_fuel <- default_fuel;
      w.w_depth <- 0;
      Array.fill w.w_active 0 (Array.length w.w_active) false;
      w.w_envs <-
        Array.map
          (fun (f : Ir.cfunc) ->
            {
              C.c_rank = rank;
              c_vars = Array.make f.Ir.cf_nvars 0;
              c_bound = Bytes.make f.Ir.cf_nvars '\000';
            })
          w.w_ir.Ir.funcs;
      try walk_call w main ~caller:w.w_envs.(main.Ir.cf_id) [||]
      with Out_of_fuel -> ())

(* Runs every given rank; returns whether the walk covered them exactly
   (no eval errors, unresolved calls, recursion or exhausted fuel). *)
let walk_ranks ir ~ranks ~on_mpi =
  let w = walker ir ~on_mpi in
  List.iter (walk_rank w) ranks;
  w.w_exact

(* ------------------------------------------------------------------ *)
(* Symbolic interprocedural propagation                                *)
(* ------------------------------------------------------------------ *)

type finfo = {
  mutable fi_inv : Symbolic.t;  (* symbolic invocations per program run *)
  mutable fi_ctx : (string * Symbolic.t) list;  (* formal bindings *)
}

(* AST walk of one function: each statement's execution count per
   invocation, and the symbolic variable environment in scope ([let]s
   included; loop variables bound to their trip counts, an upper bound
   on the values they take).  A statement runs as often as the product
   of its enclosing trip counts; a loop statement counts its iterations,
   that product times its own trip.  A trip the domain cannot express
   makes the counts under it Top. *)
let scan_function prog ctx (f : Ast.func) =
  let counts = Hashtbl.create 32 in
  let envs = Hashtbl.create 32 in
  let comm = ref [] in
  let rec go vars mult stmts = ignore (List.fold_left (step mult) vars stmts)
  and step mult vars (st : Ast.stmt) =
    Hashtbl.replace counts st.Ast.loc mult;
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
        let iters = Symbolic.mul mult trip in
        (* in place: the key keeps its slot in the table's order *)
        Hashtbl.replace counts st.Ast.loc iters;
        go ((l.Ast.var, trip) :: vars) iters l.Ast.body;
        vars
    | Ast.Branch b ->
        go vars mult b.then_;
        go vars mult b.else_;
        vars
  in
  go ctx Symbolic.one f.Ast.fbody;
  (counts, envs, List.rev !comm)

(* Per-invocation execution count of the statement at [loc]. *)
let count_in counts loc =
  match Hashtbl.find_opt counts loc with Some c -> c | None -> Symbolic.top

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
        let t = scan_function prog info.fi_ctx f in
        Hashtbl.replace site_tables name t;
        t
  in
  let site_count caller loc =
    let counts, _, _ = tables_of caller in
    count_in counts loc
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
                  let _, envs, _ = tables_of name in
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

(* What one walk at scale [np] tallies, indexed by MPI key or function
   id: each statement's network pressure summed over the walked ranks,
   and — when the walk covers every rank for the matrices — each
   function's point-to-point message matrix and the collectives it
   executed. *)
type probe = {
  pr_np : int;
  pr_nranks : int;  (* ranks actually walked *)
  pr_exact : bool;
  pr_ir : Ir.program;
  pr_cost : float array;  (* by key *)
  pr_p2p : int array array option array;  (* by function id *)
  pr_colls : string list array;  (* by function id *)
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

(* Network pressure of one dynamic execution is its per-rank dilation
   weight: ring distance for the sending side of point-to-point traffic
   (the receiving side carries none), tree/dissemination depth for
   collectives.  Every weight is a whole number, so the per-key sums are
   exact whatever order the ranks are walked in.  A destination that
   fails to evaluate weighs 1 and makes the probe imprecise. *)
let probe_scale prog np ~matrices =
  let ir = compile prog ~nprocs:np in
  let ranks = if matrices then List.init np Fun.id else probe_ranks np in
  let nfuncs = Array.length ir.Ir.funcs in
  let cost = Array.make (Array.length ir.Ir.keys) 0.0 in
  let p2p = Array.make nfuncs None and colls = Array.make nfuncs [] in
  let lg = float_of_int (Network.log2_ceil np) in
  let imprecise = ref false in
  let func key = (fst ir.Ir.keys.(key)).Ir.cf_id in
  let exact =
    walk_ranks ir ~ranks ~on_mpi:(fun key env c op ->
        let rank = env.C.c_rank in
        let wt =
          match op with
          | Ir.KSend { dest; _ }
          | Ir.KIsend { dest; _ }
          | Ir.KSendrecv { dest; _ } -> (
              match C.eval env dest with
              | exception Expr.Eval_error _ ->
                  imprecise := true;
                  1.0
              | d ->
                  if matrices && d >= 0 && d < np && d <> rank then begin
                    let m =
                      match p2p.(func key) with
                      | Some m -> m
                      | None ->
                          let m = Array.make_matrix np np 0 in
                          p2p.(func key) <- Some m;
                          m
                    in
                    m.(rank).(d) <- m.(rank).(d) + 1
                  end;
                  float_of_int (ring_dist np rank d))
          | Ir.KRecv _ | Ir.KIrecv _ | Ir.KWait _ | Ir.KWaitall _ -> 0.0
          | Ir.KColl _ ->
              let name = Ast.mpi_name c in
              let f = func key in
              if not (List.exists (String.equal name) colls.(f)) then
                colls.(f) <- name :: colls.(f);
              (match c with
              | Ast.Allreduce _ -> 2.0 *. lg
              | Ast.Allgather _ | Ast.Alltoall _ ->
                  float_of_int (max 1 (np - 1))
              | _ -> lg (* barrier, bcast, reduce *))
        in
        cost.(key) <- cost.(key) +. wt)
  in
  {
    pr_np = np;
    pr_nranks = List.length ranks;
    pr_exact = exact && not !imprecise;
    pr_ir = ir;
    pr_cost = cost;
    pr_p2p = p2p;
    pr_colls = colls;
  }

(* Mean pressure per rank: robust against the lone wraparound rank of a
   ring-embedded grid inflating an otherwise-constant halo pattern. *)
let probe_samples probes key =
  List.map
    (fun pr ->
      let v =
        match key with
        | None -> 0.0
        | Some k -> pr.pr_cost.(k) /. float_of_int (max 1 pr.pr_nranks)
      in
      (pr.pr_np, v))
    probes

(* ------------------------------------------------------------------ *)
(* Communication matrices and pattern classification                   *)
(* ------------------------------------------------------------------ *)

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
  (* matrix_np is a probe scale: that probe's walk covers every rank and
     also tallies the matrices *)
  let probes =
    List.map
      (fun np -> probe_scale prog np ~matrices:(np = matrix_np))
      probe_scales
  in
  let exact = List.for_all (fun pr -> pr.pr_exact) probes in
  let mprobe = List.find (fun pr -> pr.pr_np = matrix_np) probes in
  let key_ids = Hashtbl.create 64 in
  Array.iteri
    (fun k ((f : Ir.cfunc), loc) ->
      Hashtbl.replace key_ids (f.Ir.cf_name, loc) k)
    mprobe.pr_ir.Ir.keys;
  let func_id name =
    Array.find_opt
      (fun (f : Ir.cfunc) -> String.equal f.Ir.cf_name name)
      mprobe.pr_ir.Ir.funcs
    |> Option.map (fun (f : Ir.cfunc) -> f.Ir.cf_id)
  in
  let matrix name = Option.bind (func_id name) (fun id -> mprobe.pr_p2p.(id)) in
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
      let per_inv, envs, comm = tables_of f.Ast.fname in
      Hashtbl.iter
        (fun loc c ->
          Hashtbl.replace counts (f.Ast.fname, loc)
            (Symbolic.mul info.fi_inv c))
        per_inv;
      List.iter
        (fun ((st : Ast.stmt), c) ->
          let loc = st.Ast.loc in
          let vars =
            match Hashtbl.find_opt envs loc with
            | Some vs -> vs
            | None -> info.fi_ctx
          in
          let env = Symbolic.env ~params:prog.Ast.params ~vars in
          let msgs = Symbolic.mul info.fi_inv (count_in per_inv loc) in
          let bytes =
            match bytes_expr c with
            | None -> Symbolic.zero
            | Some e -> Symbolic.of_expr env e
          in
          let samples =
            probe_samples probes (Hashtbl.find_opt key_ids (f.Ast.fname, loc))
          in
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
          match matrix name with Some m -> matrix_pairs m | None -> []
        in
        let coll_names =
          match func_id name with
          | Some id -> List.sort compare mprobe.pr_colls.(id)
          | None -> []
        in
        if pairs = [] && coll_names = [] then None
        else Some (name, classify_pattern ~np:matrix_np pairs coll_names))
      funcs_in_order
  in
  let matrices =
    List.filter_map
      (fun (f : Ast.func) ->
        Option.map (fun m -> (f.Ast.fname, m)) (matrix f.Ast.fname))
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
let patterns t = t.t_patterns

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

(* Hockney/tree model time of one dynamic execution: the simulator's
   own Network shapes, so the fitted model slope is comparable with the
   measured one. *)
let model_time ~np env (c : Ast.mpi_call) (op : Ir.cmpi) =
  let net = Network.default in
  let eval = C.eval env in
  match op with
  | Ir.KSend { bytes; _ } | Ir.KIsend { bytes; _ }
  | Ir.KRecv { bytes; _ } | Ir.KIrecv { bytes; _ } ->
      Network.transfer_time net (eval bytes)
  | Ir.KSendrecv { sbytes; rbytes; _ } ->
      Network.transfer_time net (eval sbytes)
      +. (float_of_int (max 0 (eval rbytes)) /. net.bandwidth)
  | Ir.KWait _ | Ir.KWaitall _ -> 0.0
  | Ir.KColl { bytes } ->
      Network.collective_time net ~nprocs:np ~bytes:(eval bytes) c

let model_series prog ~scales =
  let walks = List.map (fun np -> (np, compile prog ~nprocs:np)) scales in
  let nkeys =
    match walks with (_, ir) :: _ -> Array.length ir.Ir.keys | [] -> 0
  in
  let seen = Array.make nkeys false in
  let order = ref [] in
  let exact = ref true in
  let totals =
    List.map
      (fun (np, ir) ->
        let total = Array.make nkeys 0.0 in
        let e =
          walk_ranks ir ~ranks:(List.init np Fun.id)
            ~on_mpi:(fun key env c op ->
              let t =
                try model_time ~np env c op with Expr.Eval_error _ -> 0.0
              in
              total.(key) <- total.(key) +. t;
              if not seen.(key) then begin
                seen.(key) <- true;
                order := key :: !order
              end)
        in
        exact := !exact && e;
        (np, total))
      walks
  in
  let series =
    List.rev_map
      (fun key ->
        let (f : Ir.cfunc), loc = (snd (List.hd walks)).Ir.keys.(key) in
        ( (f.Ir.cf_name, loc),
          (* mean per rank *)
          List.map
            (fun (np, total) -> (np, total.(key) /. float_of_int np))
            totals ))
      !order
  in
  (!exact, series)

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

(* Tags hash to themselves: [Int.hash] is a C call per lookup. *)
module Tags = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash t = t land max_int
end)

(* One rank's channel to (sends) or from (receives) one peer with one
   tag: its message count and the MPI key of its first site. *)
type chan = { c_tag : int; mutable c_n : int; c_key : int }

let bump tbl ~tag key =
  match Tags.find tbl tag with
  | c -> c.c_n <- c.c_n + 1
  | exception Not_found ->
      Tags.replace tbl tag { c_tag = tag; c_n = 1; c_key = key }

(* A peer's channels in tag order; the table is left empty. *)
let drain tbl =
  if Tags.length tbl = 0 then []
  else begin
    let cs = Tags.fold (fun _ c acc -> c :: acc) tbl [] in
    Tags.clear tbl;
    List.sort (fun a b -> Int.compare a.c_tag b.c_tag) cs
  end

(* Ranks are walked in ascending order and each rank's channels are
   flushed in (peer, tag) order after its walk, any source and any tag
   first, so the channel lists come out sorted by key. *)
let audit prog ~nprocs =
  let ir = compile prog ~nprocs in
  let sends = Array.init nprocs (fun _ -> Tags.create 8) in
  (* receives by source slot: 0 is any source, 1 + s is source s *)
  let recvs = Array.init (nprocs + 1) (fun _ -> Tags.create 8) in
  let recvs_any_tag = Array.make (nprocs + 1) None in
  let colls = Array.make (Array.length ir.Ir.keys) None in
  let au_sends = ref [] and au_recvs = ref [] in
  let imprecise = ref false in
  let send env key dest tag =
    match (C.eval env dest, C.eval env tag) with
    | d, tag when d >= 0 && d < nprocs -> bump sends.(d) ~tag key
    | _ -> imprecise := true
    | exception Expr.Eval_error _ -> imprecise := true
  in
  let recv env key (src : Ir.cpeer) (tag : Ir.ctag) =
    let slot =
      match src with
      | Ir.KPAny -> 0
      | Ir.KPeer e -> (
          match C.eval env e with
          | v when v >= 0 && v < nprocs -> v + 1
          | _ -> -1
          | exception Expr.Eval_error _ -> -1)
    in
    match tag with
    | _ when slot < 0 -> imprecise := true
    | Ir.KTAny -> (
        match recvs_any_tag.(slot) with
        | Some c -> c.c_n <- c.c_n + 1
        | None ->
            recvs_any_tag.(slot) <- Some { c_tag = 0; c_n = 1; c_key = key })
    | Ir.KTag e -> (
        match C.eval env e with
        | tag -> bump recvs.(slot) ~tag key
        | exception Expr.Eval_error _ -> imprecise := true)
  in
  let w =
    walker ir ~on_mpi:(fun key env c op ->
        match op with
        | Ir.KSend { dest; tag; _ } | Ir.KIsend { dest; tag; _ } ->
            send env key dest tag
        | Ir.KRecv { src; tag; _ } | Ir.KIrecv { src; tag; _ } ->
            recv env key src tag
        | Ir.KSendrecv { dest; stag; src; rtag; _ } ->
            send env key dest stag;
            recv env key src rtag
        | Ir.KWait _ | Ir.KWaitall _ -> ()
        | Ir.KColl _ -> (
            let rank = env.C.c_rank in
            match colls.(key) with
            | Some (_, arr) -> arr.(rank) <- arr.(rank) + 1
            | None ->
                let arr = Array.make nprocs 0 in
                arr.(rank) <- 1;
                colls.(key) <- Some (Ast.mpi_name c, arr)))
  in
  let site c =
    let (f : Ir.cfunc), loc = ir.Ir.keys.(c.c_key) in
    (c.c_n, loc, f.Ir.cf_name)
  in
  for rank = 0 to nprocs - 1 do
    walk_rank w rank;
    Array.iteri
      (fun dst tbl ->
        List.iter
          (fun c -> au_sends := ((rank, dst, c.c_tag), site c) :: !au_sends)
          (drain tbl))
      sends;
    Array.iteri
      (fun slot tbl ->
        let src = if slot = 0 then None else Some (slot - 1) in
        let emit tag c = au_recvs := ((rank, src, tag), site c) :: !au_recvs in
        Option.iter (emit None) recvs_any_tag.(slot);
        recvs_any_tag.(slot) <- None;
        List.iter (fun c -> emit (Some c.c_tag) c) (drain tbl))
      recvs
  done;
  let au_colls = ref [] in
  Array.iteri
    (fun key coll ->
      Option.iter
        (fun v ->
          let (f : Ir.cfunc), loc = ir.Ir.keys.(key) in
          au_colls := ((f.Ir.cf_name, loc), v) :: !au_colls)
        coll)
    colls;
  {
    au_nprocs = nprocs;
    au_exact = w.w_exact && not !imprecise;
    au_sends = List.rev !au_sends;
    au_recvs = List.rev !au_recvs;
    au_colls =
      List.sort
        (fun ((f1, l1), _) ((f2, l2), _) ->
          match String.compare f1 f2 with 0 -> Loc.compare l1 l2 | c -> c)
        !au_colls;
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
