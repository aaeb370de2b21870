(* Compiled MiniMPI programs: the one executable form of a program, run by
   the simulator ([Exec]) and walked by the static communication-cost
   analysis ([Scalana_cfg.Commcost]).

   A program is compiled once per (job scale, parameter values) point,
   which [Expr.Compiled] folds away.  Variables and request names are
   slots into per-frame arrays; direct and indirect call targets are
   resolved to compiled functions at load time, with unresolved names
   kept as lazy error nodes so a call to an undefined function surfaces
   only if the call executes.  Every distinct (function, source location)
   of an MPI statement gets a dense key, so per-statement tallies are
   arrays indexed by key rather than tables keyed by the pair. *)

open Scalana_mlang
module C = Expr.Compiled

type cfunc = {
  cf_name : string;
  cf_id : int;  (* dense, first definitions in source order *)
  cf_nvars : int;
  cf_nreqs : int;
  mutable cf_body : cstmt array;  (* filled after creation: recursion *)
}

and cstmt = { sloc : Loc.t; snode : cnode }

and cnode =
  | KLet of { slot : int; value : C.expr }
  | KComp of {
      flops : C.expr;
      mem : C.expr;
      ints : C.expr;
      locality : float;
      label : string option;
    }
  | KLoop of { slot : int; count : C.expr; body : cstmt array; effects : bool }
      (* effects: the body communicates, calls or binds somewhere *)
  | KBranch of { cond : C.expr; then_ : cstmt array; else_ : cstmt array }
  | KCall of { callee : cfunc; args : (int * C.expr) array; kids : kids }
      (* args: (callee var slot, caller-frame expression) *)
  | KCall_undef of string
  | KIcall of {
      selector : C.expr;
      targets : (string * cfunc option) array;
      kids : kids;
    }
  | KMpi of { ast : Ast.mpi_call; op : cmpi; key : int }

and cmpi =
  | KSend of { dest : C.expr; tag : C.expr; bytes : C.expr }
  | KRecv of { src : cpeer; tag : ctag; bytes : C.expr }
  | KIsend of { dest : C.expr; tag : C.expr; bytes : C.expr; slot : int }
  | KIrecv of { src : cpeer; tag : ctag; bytes : C.expr; slot : int }
  | KWait of { slot : int; name : string }
  | KWaitall of { slots : (int * string) array }
  | KSendrecv of {
      dest : C.expr;
      stag : C.expr;
      sbytes : C.expr;
      src : cpeer;
      rtag : ctag;
      rbytes : C.expr;
    }
  | KColl of { bytes : C.expr }

and cpeer = KPAny | KPeer of C.expr
and ctag = KTAny | KTag of C.expr

(* A call node's cache of the simulator's calling-context table: (parent
   context id, child context id) for each context the node has been
   called from. *)
and kids = { mutable kids : (int * int) list }

type program = {
  main : cfunc option;  (* [None] when the program defines no main *)
  funcs : cfunc array;  (* indexed by [cf_id] *)
  keys : (cfunc * Loc.t) array;  (* MPI key -> enclosing function, site *)
}

type fslots = {
  vtbl : (string, int) Hashtbl.t;
  mutable vnext : int;
  rtbl : (string, int) Hashtbl.t;
  mutable rnext : int;
}

let vslot fs name =
  match Hashtbl.find_opt fs.vtbl name with
  | Some i -> i
  | None ->
      let i = fs.vnext in
      fs.vnext <- i + 1;
      Hashtbl.replace fs.vtbl name i;
      i

let rslot fs name =
  match Hashtbl.find_opt fs.rtbl name with
  | Some i -> i
  | None ->
      let i = fs.rnext in
      fs.rnext <- i + 1;
      Hashtbl.replace fs.rtbl name i;
      i

let rec has_effects body =
  Array.exists
    (fun st ->
      match st.snode with
      | KLet _ | KCall _ | KCall_undef _ | KIcall _ | KMpi _ -> true
      | KComp _ -> false
      | KLoop { effects; _ } -> effects
      | KBranch { then_; else_; _ } -> has_effects then_ || has_effects else_)
    body

(* Compile [program] at one (nprocs, params) point.  Duplicate function
   names keep first-definition-wins resolution. *)
let compile ~nprocs ~params (program : Ast.program) =
  let funcs =
    List.fold_left
      (fun acc (f : Ast.func) ->
        if List.exists (fun (g : Ast.func) -> g.fname = f.fname) acc then acc
        else f :: acc)
      [] program.funcs
    |> List.rev
  in
  let slots : (string, fslots) Hashtbl.t = Hashtbl.create 16 in
  (* pass 1: per-function slots for params, loop/let vars, requests *)
  List.iter
    (fun (f : Ast.func) ->
      let fs =
        {
          vtbl = Hashtbl.create 8;
          vnext = 0;
          rtbl = Hashtbl.create 4;
          rnext = 0;
        }
      in
      Hashtbl.replace slots f.fname fs;
      List.iter (fun p -> ignore (vslot fs p)) f.fparams;
      Ast.iter_stmts
        (fun st ->
          match st.Ast.node with
          | Ast.Let { var; _ } -> ignore (vslot fs var)
          | Ast.Loop l -> ignore (vslot fs l.var)
          | Ast.Mpi
              ( Ast.Isend { req; _ }
              | Ast.Irecv { req; _ }
              | Ast.Wait { req } ) ->
              ignore (rslot fs req)
          | Ast.Mpi (Ast.Waitall { reqs }) ->
              List.iter (fun r -> ignore (rslot fs r)) reqs
          | _ -> ())
        f.fbody)
    funcs;
  (* pass 2: call-site argument names become slots of the callee (a call
     binds whatever names its site passes) *)
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_stmts
        (fun st ->
          match st.Ast.node with
          | Ast.Call { callee; args } -> (
              match Hashtbl.find_opt slots callee with
              | Some cfs -> List.iter (fun (n, _) -> ignore (vslot cfs n)) args
              | None -> ())
          | _ -> ())
        f.fbody)
    funcs;
  (* pass 3: create the (cyclic) function records, then compile bodies *)
  let cmap : (string, cfunc) Hashtbl.t = Hashtbl.create 16 in
  let cfuncs =
    List.mapi
      (fun id (f : Ast.func) ->
        let fs = Hashtbl.find slots f.fname in
        let cf =
          {
            cf_name = f.fname;
            cf_id = id;
            cf_nvars = fs.vnext;
            cf_nreqs = fs.rnext;
            cf_body = [||];
          }
        in
        Hashtbl.replace cmap f.fname cf;
        cf)
      funcs
  in
  let key_ids : (string * Loc.t, int) Hashtbl.t = Hashtbl.create 64 in
  let keys = ref [] in
  let key_of (cf : cfunc) loc =
    match Hashtbl.find_opt key_ids (cf.cf_name, loc) with
    | Some k -> k
    | None ->
        let k = Hashtbl.length key_ids in
        Hashtbl.replace key_ids (cf.cf_name, loc) k;
        keys := (cf, loc) :: !keys;
        k
  in
  let param name = List.assoc_opt name params in
  let compile_func (f : Ast.func) =
    let fs = Hashtbl.find slots f.fname in
    let cf = Hashtbl.find cmap f.fname in
    let var_slot name =
      match Hashtbl.find_opt fs.vtbl name with Some i -> i | None -> -1
    in
    let ce e = C.compile ~nprocs ~param ~var_slot e in
    let cpeer = function
      | Ast.Any_source -> KPAny
      | Ast.Peer e -> KPeer (ce e)
    in
    let ctag = function Ast.Any_tag -> KTAny | Ast.Tag e -> KTag (ce e) in
    let cmpi (c : Ast.mpi_call) =
      match c with
      | Ast.Send { dest; tag; bytes } ->
          KSend { dest = ce dest; tag = ce tag; bytes = ce bytes }
      | Ast.Recv { src; tag; bytes } ->
          KRecv { src = cpeer src; tag = ctag tag; bytes = ce bytes }
      | Ast.Isend { dest; tag; bytes; req } ->
          KIsend
            { dest = ce dest; tag = ce tag; bytes = ce bytes;
              slot = rslot fs req }
      | Ast.Irecv { src; tag; bytes; req } ->
          KIrecv
            { src = cpeer src; tag = ctag tag; bytes = ce bytes;
              slot = rslot fs req }
      | Ast.Wait { req } -> KWait { slot = rslot fs req; name = req }
      | Ast.Waitall { reqs } ->
          KWaitall
            { slots =
                Array.of_list (List.map (fun r -> (rslot fs r, r)) reqs) }
      | Ast.Sendrecv { dest; stag; sbytes; src; rtag; rbytes } ->
          KSendrecv
            { dest = ce dest; stag = ce stag; sbytes = ce sbytes;
              src = cpeer src; rtag = ctag rtag; rbytes = ce rbytes }
      | Ast.Barrier -> KColl { bytes = ce (Expr.Int 0) }
      | Ast.Bcast { bytes; _ }
      | Ast.Reduce { bytes; _ }
      | Ast.Allreduce { bytes }
      | Ast.Alltoall { bytes }
      | Ast.Allgather { bytes } ->
          KColl { bytes = ce bytes }
    in
    let rec cstmts stmts = Array.of_list (List.map cstmt stmts)
    and cstmt (st : Ast.stmt) =
      let node =
        match st.node with
        | Ast.Let { var; value } ->
            KLet { slot = Hashtbl.find fs.vtbl var; value = ce value }
        | Ast.Comp w ->
            KComp
              { flops = ce w.flops; mem = ce w.mem; ints = ce w.ints;
                locality = w.locality; label = w.label }
        | Ast.Loop l ->
            let body = cstmts l.body in
            KLoop
              { slot = Hashtbl.find fs.vtbl l.var; count = ce l.count; body;
                effects = has_effects body }
        | Ast.Branch b ->
            KBranch
              { cond = ce b.cond; then_ = cstmts b.then_;
                else_ = cstmts b.else_ }
        | Ast.Call { callee; args } -> (
            match Hashtbl.find_opt cmap callee with
            | None -> KCall_undef callee
            | Some callee_cf ->
                let cfs = Hashtbl.find slots callee in
                KCall
                  { callee = callee_cf;
                    args =
                      Array.of_list
                        (List.map
                           (fun (n, e) -> (Hashtbl.find cfs.vtbl n, ce e))
                           args);
                    kids = { kids = [] } })
        | Ast.Icall { selector; targets } ->
            KIcall
              { selector = ce selector;
                targets =
                  Array.of_list
                    (List.map (fun n -> (n, Hashtbl.find_opt cmap n)) targets);
                kids = { kids = [] } }
        | Ast.Mpi c -> KMpi { ast = c; op = cmpi c; key = key_of cf st.loc }
      in
      { sloc = st.loc; snode = node }
    in
    cf.cf_body <- cstmts f.fbody
  in
  List.iter compile_func funcs;
  {
    main = Hashtbl.find_opt cmap program.main;
    funcs = Array.of_list cfuncs;
    keys = Array.of_list (List.rev !keys);
  }
