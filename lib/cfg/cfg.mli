(** Control-flow graphs for MiniMPI functions: structured statements are
    lowered to basic blocks with explicit terminators (loops become
    header/body/latch/exit with a back edge, branches become diamonds). *)

open Scalana_mlang

type node_id = int

type terminator =
  | Jump of node_id
  | Cond of { cond : Expr.t; on_true : node_id; on_false : node_id }
  | Ret

(** Which AST construct generated a block (provenance for structure
    recovery checks). *)
type origin =
  | Plain
  | Loop_header of Ast.stmt
  | Loop_latch of Ast.stmt
  | Branch_cond of Ast.stmt

type block = {
  id : node_id;
  stmts : Ast.stmt list;
  term : terminator;
  origin : origin;
}

type t = {
  fname : string;
  entry : node_id;
  exit_ : node_id;
  blocks : block array;
}

val of_func : Ast.func -> t
val n_blocks : t -> int
val block : t -> node_id -> block
val successors : t -> node_id -> node_id list
val predecessors : t -> node_id list array

(** Reverse postorder from the entry (unreachable blocks omitted). *)
val reverse_postorder : t -> node_id list
