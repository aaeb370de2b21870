(* Abstract syntax of MiniMPI programs.

   The language is deliberately shaped like the fragment of C/Fortran+MPI
   that ScalAna's static analysis consumes: structured control flow
   (counted loops, two-way branches), direct/indirect/recursive function
   calls, opaque computation blocks with a workload descriptor, and the
   MPI operations the paper's communication-dependence collection
   distinguishes (collective, blocking P2P, non-blocking P2P). *)

type peer = Peer of Expr.t | Any_source
type tag = Tag of Expr.t | Any_tag

type mpi_call =
  | Send of { dest : Expr.t; tag : Expr.t; bytes : Expr.t }
  | Recv of { src : peer; tag : tag; bytes : Expr.t }
  | Isend of { dest : Expr.t; tag : Expr.t; bytes : Expr.t; req : string }
  | Irecv of { src : peer; tag : tag; bytes : Expr.t; req : string }
  | Wait of { req : string }
  | Waitall of { reqs : string list }
  | Sendrecv of {
      dest : Expr.t;
      stag : Expr.t;
      sbytes : Expr.t;
      src : peer;
      rtag : tag;
      rbytes : Expr.t;
    }
  | Barrier
  | Bcast of { root : Expr.t; bytes : Expr.t }
  | Reduce of { root : Expr.t; bytes : Expr.t }
  | Allreduce of { bytes : Expr.t }
  | Alltoall of { bytes : Expr.t }
  | Allgather of { bytes : Expr.t }

(* Workload descriptor of a computation block: how many instructions of
   each class one execution retires, and what fraction of memory accesses
   hit in cache.  This is the PMU substrate: TOT_INS, TOT_LST_INS, cache
   misses and TOT_CYC all derive from it (see Scalana_runtime.Pmu). *)
type workload = {
  label : string option;
  flops : Expr.t;
  mem : Expr.t;
  ints : Expr.t;
  locality : float;
}

type stmt = { loc : Loc.t; node : node }

and node =
  | Comp of workload
  | Loop of loop
  | Branch of { cond : Expr.t; then_ : stmt list; else_ : stmt list }
  | Call of { callee : string; args : (string * Expr.t) list }
  | Icall of { selector : Expr.t; targets : string list }
  | Mpi of mpi_call
  | Let of { var : string; value : Expr.t }

and loop = { var : string; count : Expr.t; body : stmt list; label : string option }

type func = { fname : string; fparams : string list; fbody : stmt list; floc : Loc.t }

type program = {
  pname : string;
  file : string;
  params : (string * int) list;
  funcs : func list;
  main : string;
}

exception Unknown_function of string

let find_func program name =
  match List.find_opt (fun f -> String.equal f.fname name) program.funcs with
  | Some f -> f
  | None -> raise (Unknown_function name)

let find_func_opt program name =
  List.find_opt (fun f -> String.equal f.fname name) program.funcs

let main_func program = find_func program program.main

let mpi_name = function
  | Send _ -> "MPI_Send"
  | Recv _ -> "MPI_Recv"
  | Isend _ -> "MPI_Isend"
  | Irecv _ -> "MPI_Irecv"
  | Wait _ -> "MPI_Wait"
  | Waitall _ -> "MPI_Waitall"
  | Sendrecv _ -> "MPI_Sendrecv"
  | Barrier -> "MPI_Barrier"
  | Bcast _ -> "MPI_Bcast"
  | Reduce _ -> "MPI_Reduce"
  | Allreduce _ -> "MPI_Allreduce"
  | Alltoall _ -> "MPI_Alltoall"
  | Allgather _ -> "MPI_Allgather"

let is_collective = function
  | Barrier | Bcast _ | Reduce _ | Allreduce _ | Alltoall _ | Allgather _ ->
      true
  | Send _ | Recv _ | Isend _ | Irecv _ | Wait _ | Waitall _ | Sendrecv _ ->
      false

(* Operations that can spend time waiting on another process: these are
   where ScalAna's wait-edge pruning keeps communication dependence. *)
let can_wait = function
  | Recv _ | Wait _ | Waitall _ | Sendrecv _ -> true
  | Barrier | Bcast _ | Reduce _ | Allreduce _ | Alltoall _ | Allgather _ ->
      true
  | Send _ | Isend _ | Irecv _ -> false

(* Deep statement iteration in source order, entering loop and branch
   bodies but not following calls. *)
let rec iter_stmts f stmts =
  List.iter
    (fun s ->
      f s;
      match s.node with
      | Loop l -> iter_stmts f l.body
      | Branch b ->
          iter_stmts f b.then_;
          iter_stmts f b.else_
      | Comp _ | Call _ | Icall _ | Mpi _ | Let _ -> ())
    stmts

let fold_stmts f acc stmts =
  let acc = ref acc in
  iter_stmts (fun s -> acc := f !acc s) stmts;
  !acc

let iter_program f program =
  List.iter (fun fn -> iter_stmts f fn.fbody) program.funcs

let fold_program f acc program =
  let acc = ref acc in
  iter_program (fun s -> acc := f !acc s) program;
  !acc

let stmt_count program = fold_program (fun n _ -> n + 1) 0 program

(* Find the statement at a location, for source snippets in reports. *)
let stmt_at program loc =
  let found = ref None in
  iter_program
    (fun s -> if !found = None && Loc.equal s.loc loc then found := Some s)
    program;
  !found

(* Total "source" line span of a program, used as the KLoc column of the
   paper's Table II. *)
let line_count program =
  fold_program (fun acc s -> max acc (Loc.line s.loc)) 0 program

(* Programs with indirect calls refine the shared PSG/index at profile
   time, coupling runs at different scales; callers use this to decide
   whether per-scale runs are independent. *)
let has_icalls program =
  fold_program
    (fun acc s -> acc || match s.node with Icall _ -> true | _ -> false)
    false program

let workload ?label ?(locality = 0.9) ~flops ~mem () =
  { label; flops; mem; ints = Expr.Int 0; locality }
