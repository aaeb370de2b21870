(** Nekbone analogue (case study VI-D.3): a dgemm loop whose load/store
    count is equal across ranks while cycles diverge on heterogeneous
    cores (run with {!Scalana_runtime.Costmodel.heterogeneous});
    [optimized] is the paper's efficient-BLAS fix. *)

val make : ?optimized:bool -> unit -> Scalana_mlang.Ast.program
