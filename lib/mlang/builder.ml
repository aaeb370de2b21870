(* Combinator DSL for constructing MiniMPI programs in OCaml.

   The builder assigns monotonically increasing line numbers as statements
   are created, so a program written with the DSL gets stable, source-like
   locations: a loop header occupies one line, its body the following
   lines, and the closing brace one more.  Workloads (lib/apps) are
   written against this module. *)

type t = {
  file : string;
  pname : string;
  mutable next_line : int;
  mutable params : (string * int) list;
  mutable funcs : Ast.func list;
}

let create ?(params = []) ~file ~name () =
  { file; pname = name; next_line = 1; params; funcs = [] }

let fresh_loc b =
  let line = b.next_line in
  b.next_line <- line + 1;
  Loc.v ~file:b.file ~line

(* A closing brace consumes a line, keeping nested bodies source-like. *)
let close_brace b = b.next_line <- b.next_line + 1

let param b name value = b.params <- b.params @ [ (name, value) ]

let stmt b node = { Ast.loc = fresh_loc b; node }

let comp b ?label ?locality ~flops ~mem () =
  stmt b (Ast.Comp (Ast.workload ?label ?locality ~flops ~mem ()))

let loop b ?label ~var ~count body =
  let loc = fresh_loc b in
  let stmts = body () in
  close_brace b;
  { Ast.loc; node = Ast.Loop { var; count; body = stmts; label } }

let branch b ~cond ?(else_ = fun () -> []) then_ =
  let loc = fresh_loc b in
  let then_stmts = then_ () in
  close_brace b;
  let else_stmts = else_ () in
  (match else_stmts with [] -> () | _ -> close_brace b);
  { Ast.loc; node = Ast.Branch { cond; then_ = then_stmts; else_ = else_stmts } }

let call b ?(args = []) callee = stmt b (Ast.Call { callee; args })
let icall b ~selector targets = stmt b (Ast.Icall { selector; targets })
let let_ b var value = stmt b (Ast.Let { var; value })

let default_tag = Expr.Int 0

let send b ~dest ?(tag = default_tag) ~bytes () =
  stmt b (Ast.Mpi (Ast.Send { dest; tag; bytes }))

let peer_of_opt = function None -> Ast.Any_source | Some e -> Ast.Peer e
let tag_of_opt = function None -> Ast.Any_tag | Some e -> Ast.Tag e

let recv b ?src ?tag ~bytes () =
  stmt b (Ast.Mpi (Ast.Recv { src = peer_of_opt src; tag = tag_of_opt tag; bytes }))

let isend b ~dest ?(tag = default_tag) ~bytes ~req () =
  stmt b (Ast.Mpi (Ast.Isend { dest; tag; bytes; req }))

let irecv b ?src ?tag ~bytes ~req () =
  stmt b
    (Ast.Mpi (Ast.Irecv { src = peer_of_opt src; tag = tag_of_opt tag; bytes; req }))

let wait b ~req = stmt b (Ast.Mpi (Ast.Wait { req }))
let waitall b ~reqs = stmt b (Ast.Mpi (Ast.Waitall { reqs }))

let sendrecv b ~dest ?(stag = default_tag) ~sbytes ?src ?rtag ~rbytes () =
  stmt b
    (Ast.Mpi
       (Ast.Sendrecv
          {
            dest;
            stag;
            sbytes;
            src = peer_of_opt src;
            rtag = tag_of_opt rtag;
            rbytes;
          }))

let barrier b = stmt b (Ast.Mpi Ast.Barrier)

let bcast b ?(root = Expr.Int 0) ~bytes () =
  stmt b (Ast.Mpi (Ast.Bcast { root; bytes }))

let reduce b ?(root = Expr.Int 0) ~bytes () =
  stmt b (Ast.Mpi (Ast.Reduce { root; bytes }))

let allreduce b ~bytes = stmt b (Ast.Mpi (Ast.Allreduce { bytes }))
let alltoall b ~bytes = stmt b (Ast.Mpi (Ast.Alltoall { bytes }))
let allgather b ~bytes = stmt b (Ast.Mpi (Ast.Allgather { bytes }))

let func b ?(params = []) name body =
  let floc = fresh_loc b in
  let fbody = body () in
  close_brace b;
  b.funcs <- b.funcs @ [ { Ast.fname = name; fparams = params; fbody; floc } ]

(* Final location assignment.

   OCaml evaluates list literals in unspecified (typically right-to-left)
   order, so the lines handed out while the DSL thunks run are not
   reliable.  [relocate] renumbers every statement in source order with
   the exact line accounting {!Pretty} uses (one line per simple
   statement, header + body + closing brace for blocks, a "} else {"
   line between branch arms), so rendered sources align with locations
   with no padding. *)
let relocate (p : Ast.program) =
  let line = ref 1 in
  let fresh () =
    let l = !line in
    incr line;
    Loc.v ~file:p.file ~line:l
  in
  let skip () = incr line in
  let rec stmt (s : Ast.stmt) =
    let loc = fresh () in
    let node =
      match s.Ast.node with
      | Ast.Loop l ->
          let body = stmts l.body in
          skip ();
          Ast.Loop { l with body }
      | Ast.Branch b ->
          let then_ = stmts b.then_ in
          skip ();
          let else_ = stmts b.else_ in
          if b.else_ <> [] then skip ();
          Ast.Branch { b with then_; else_ }
      | (Ast.Comp _ | Ast.Call _ | Ast.Icall _ | Ast.Mpi _ | Ast.Let _) as n ->
          n
    in
    { Ast.loc; node }
  and stmts l = List.map stmt l in
  let func (f : Ast.func) =
    let floc = fresh () in
    let fbody = stmts f.fbody in
    skip ();
    { f with Ast.floc; fbody }
  in
  (* the program header and each param line precede the functions *)
  skip ();
  List.iter (fun _ -> skip ()) p.params;
  { p with Ast.funcs = List.map func p.funcs }

let program b =
  relocate
    {
      Ast.pname = b.pname;
      file = b.file;
      params = b.params;
      funcs = b.funcs;
      main = "main";
    }
