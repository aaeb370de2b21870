(** Compiled MiniMPI programs: the one executable form of a program, run
    by the simulator ({!Exec}) and walked by the static
    communication-cost analysis ([Scalana_cfg.Commcost]).

    A program is compiled at one (job scale, parameter values) point,
    which {!Scalana_mlang.Expr.Compiled} folds away.  Variables and
    request names are integer slots into per-frame arrays; call targets
    resolve to compiled functions, and an unresolved name stays a lazy
    error node that surfaces only if the call executes. *)

open Scalana_mlang
module C = Expr.Compiled

type cfunc = {
  cf_name : string;
  cf_id : int;  (** dense, first definitions in source order *)
  cf_nvars : int;
  cf_nreqs : int;
  mutable cf_body : cstmt array;  (** filled after creation: recursion *)
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
      (** [effects]: the body communicates, calls or binds somewhere *)
  | KBranch of { cond : C.expr; then_ : cstmt array; else_ : cstmt array }
  | KCall of { callee : cfunc; args : (int * C.expr) array; kids : kids }
      (** [args]: (callee var slot, caller-frame expression) *)
  | KCall_undef of string
  | KIcall of {
      selector : C.expr;
      targets : (string * cfunc option) array;
      kids : kids;
    }
  | KMpi of { ast : Ast.mpi_call; op : cmpi; key : int }
      (** [key]: the statement's MPI key, see {!program} *)

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

(** A call node's cache of the simulator's calling-context table:
    (parent context id, child context id) for each context the node has
    been called from. *)
and kids = { mutable kids : (int * int) list }

type program = {
  main : cfunc option;  (** [None] when the program defines no main *)
  funcs : cfunc array;  (** indexed by [cf_id] *)
  keys : (cfunc * Loc.t) array;
      (** MPI key -> enclosing function and source location.  Every
          distinct (function, location) of an MPI statement has one
          dense key, numbered alike at every scale, so per-statement
          tallies are arrays indexed by key. *)
}

val compile :
  nprocs:int -> params:(string * int) list -> Ast.program -> program
(** [params] are the values of the program's parameters.  Duplicate
    function names keep first-definition-wins resolution. *)
