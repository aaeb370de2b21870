(** Abstract syntax of MiniMPI programs. *)

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

(** Workload descriptor of a computation block; the PMU model derives
    instruction, load/store, cache-miss and cycle counts from it. *)
type workload = {
  label : string option;
  flops : Expr.t;
  mem : Expr.t;
  ints : Expr.t;
  locality : float;  (** fraction of memory accesses hitting in cache *)
}

type stmt = { loc : Loc.t; node : node }

and node =
  | Comp of workload
  | Loop of loop
  | Branch of { cond : Expr.t; then_ : stmt list; else_ : stmt list }
  | Call of { callee : string; args : (string * Expr.t) list }
  | Icall of { selector : Expr.t; targets : string list }
      (** indirect call: resolved at runtime to [List.nth targets
          (selector mod length)] — the static analysis cannot see the
          callee, mirroring function pointers *)
  | Mpi of mpi_call
  | Let of { var : string; value : Expr.t }

and loop = { var : string; count : Expr.t; body : stmt list; label : string option }

type func = { fname : string; fparams : string list; fbody : stmt list; floc : Loc.t }

type program = {
  pname : string;
  file : string;
  params : (string * int) list;  (** default problem-size parameters *)
  funcs : func list;
  main : string;
}

exception Unknown_function of string

val find_func : program -> string -> func
val find_func_opt : program -> string -> func option
val main_func : program -> func
val mpi_name : mpi_call -> string
val is_collective : mpi_call -> bool

(** Operations that can block waiting on a remote process. *)
val can_wait : mpi_call -> bool

(** Deep iteration over statements in source order (loop and branch bodies
    included; calls not followed). *)
val iter_stmts : (stmt -> unit) -> stmt list -> unit

val fold_stmts : ('a -> stmt -> 'a) -> 'a -> stmt list -> 'a
val iter_program : (stmt -> unit) -> program -> unit
val stmt_count : program -> int
val stmt_at : program -> Loc.t -> stmt option

(** Largest source line of the program (the KLoc column of Table II). *)
val line_count : program -> int

(** Does the program contain indirect call sites?  Profiled runs of such
    programs refine the shared PSG as they resolve targets, so runs at
    different scales are order-dependent and must stay sequential. *)
val has_icalls : program -> bool

(** A workload with [ints = 0]; [locality] defaults to 0.9. *)
val workload :
  ?label:string ->
  ?locality:float ->
  flops:Expr.t ->
  mem:Expr.t ->
  unit ->
  workload
