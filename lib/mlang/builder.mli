(** Combinator DSL for constructing MiniMPI programs with stable,
    source-like line numbers. Statements receive consecutive lines in
    creation order; loop/branch/function bodies are passed as thunks so
    the header line precedes the body lines. *)

type t

val create :
  ?params:(string * int) list -> file:string -> name:string -> unit -> t

(** Append a problem-size parameter with its default value. *)
val param : t -> string -> int -> unit

(** A computation block retiring no other instructions ([ints=0]). *)
val comp :
  t ->
  ?label:string ->
  ?locality:float ->
  flops:Expr.t ->
  mem:Expr.t ->
  unit ->
  Ast.stmt

val loop :
  t ->
  ?label:string ->
  var:string ->
  count:Expr.t ->
  (unit -> Ast.stmt list) ->
  Ast.stmt

val branch :
  t ->
  cond:Expr.t ->
  ?else_:(unit -> Ast.stmt list) ->
  (unit -> Ast.stmt list) ->
  Ast.stmt

val call : t -> ?args:(string * Expr.t) list -> string -> Ast.stmt

(** Kept: the program DSL has one constructor per MiniMPI statement kind. *)
val icall : t -> selector:Expr.t -> string list -> Ast.stmt
val let_ : t -> string -> Expr.t -> Ast.stmt
val send : t -> dest:Expr.t -> ?tag:Expr.t -> bytes:Expr.t -> unit -> Ast.stmt

(** [src]/[tag] default to wildcards (any source / any tag). *)
val recv : t -> ?src:Expr.t -> ?tag:Expr.t -> bytes:Expr.t -> unit -> Ast.stmt

val isend :
  t -> dest:Expr.t -> ?tag:Expr.t -> bytes:Expr.t -> req:string -> unit -> Ast.stmt

val irecv :
  t -> ?src:Expr.t -> ?tag:Expr.t -> bytes:Expr.t -> req:string -> unit -> Ast.stmt

(** Kept: the program DSL has one constructor per MiniMPI statement kind. *)
val wait : t -> req:string -> Ast.stmt
val waitall : t -> reqs:string list -> Ast.stmt

val sendrecv :
  t ->
  dest:Expr.t ->
  ?stag:Expr.t ->
  sbytes:Expr.t ->
  ?src:Expr.t ->
  ?rtag:Expr.t ->
  rbytes:Expr.t ->
  unit ->
  Ast.stmt

(** Kept: the program DSL has one constructor per MiniMPI statement kind. *)
val barrier : t -> Ast.stmt
val bcast : t -> ?root:Expr.t -> bytes:Expr.t -> unit -> Ast.stmt

(** Kept: the program DSL has one constructor per MiniMPI statement kind. *)
val reduce : t -> ?root:Expr.t -> bytes:Expr.t -> unit -> Ast.stmt
val allreduce : t -> bytes:Expr.t -> Ast.stmt
val alltoall : t -> bytes:Expr.t -> Ast.stmt

(** Kept: the program DSL has one constructor per MiniMPI statement kind. *)
val allgather : t -> bytes:Expr.t -> Ast.stmt

(** Register a function; body statements are created inside the thunk. *)
val func : t -> ?params:string list -> string -> (unit -> Ast.stmt list) -> unit

(** Finalize the program; its entry point is the function ["main"]. *)
val program : t -> Ast.program
