(* Recursive-descent parser for MiniMPI concrete syntax.

   Grammar (field order in statements is fixed, matching Pretty's output):

     program  ::= 'program' STRING param* func*
     param    ::= 'param' IDENT '=' ['-'] INT
     func     ::= 'func' IDENT '(' [IDENT {',' IDENT}] ')' '{' stmt* '}'
     stmt     ::= 'let' IDENT '=' expr ';'
                | 'loop' IDENT '=' expr ['label' STRING] '{' stmt* '}'
                | 'if' expr '{' stmt* '}' ['else' '{' stmt* '}']
                | 'comp' ['label' STRING] 'flops' '=' expr 'mem' '=' expr
                         'ints' '=' expr 'locality' '=' number ';'
                | 'call' IDENT '(' [IDENT '=' expr {',' ...}] ')' ';'
                | 'icall' 'sel' '=' expr '(' IDENT {',' IDENT} ')' ';'
                | mpi ';'
     expr     ::= precedence-climbing over || && cmp ^ shift +- */% unary
     primary  ::= INT | 'rank' | 'np' | '$' IDENT | IDENT
                | 'min'|'max' '(' expr ',' expr ')' | '(' expr ')'  *)

exception Parse_error of { line : int; msg : string }

let parse_error ~line fmt =
  Fmt.kstr (fun msg -> raise (Parse_error { line; msg })) fmt

type st = {
  toks : (Lexer.token * int) array;
  mutable pos : int;
  file : string;
}

let peek st = fst st.toks.(st.pos)
let peek_line st = snd st.toks.(st.pos)
let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let next st =
  let tok = peek st in
  advance st;
  tok

let expect st tok =
  let got = peek st in
  if got = tok then advance st
  else
    parse_error ~line:(peek_line st) "expected %s but found %s"
      (Lexer.token_name tok) (Lexer.token_name got)

let ident st =
  match peek st with
  | Lexer.IDENT s ->
      advance st;
      s
  | got ->
      parse_error ~line:(peek_line st) "expected identifier, found %s"
        (Lexer.token_name got)

let keyword st kw =
  let line = peek_line st in
  let s = ident st in
  if not (String.equal s kw) then
    parse_error ~line "expected %S, found %S" kw s

let string_lit st =
  match peek st with
  | Lexer.STRING s ->
      advance st;
      s
  | got ->
      parse_error ~line:(peek_line st) "expected string literal, found %s"
        (Lexer.token_name got)

let int_lit st =
  match peek st with
  | Lexer.INT n ->
      advance st;
      n
  | Lexer.MINUS ->
      advance st;
      (match peek st with
      | Lexer.INT n ->
          advance st;
          -n
      | got ->
          parse_error ~line:(peek_line st) "expected integer, found %s"
            (Lexer.token_name got))
  | got ->
      parse_error ~line:(peek_line st) "expected integer, found %s"
        (Lexer.token_name got)

let number st =
  match peek st with
  | Lexer.FLOAT f ->
      advance st;
      f
  | Lexer.INT n ->
      advance st;
      float_of_int n
  | got ->
      parse_error ~line:(peek_line st) "expected number, found %s"
        (Lexer.token_name got)

(* --- expressions, precedence climbing --- *)

let rec expr st = or_expr st

and or_expr st =
  let rec go lhs =
    match peek st with
    | Lexer.OROR ->
        advance st;
        go (Expr.Bin (Expr.Or, lhs, and_expr st))
    | _ -> lhs
  in
  go (and_expr st)

and and_expr st =
  let rec go lhs =
    match peek st with
    | Lexer.ANDAND ->
        advance st;
        go (Expr.Bin (Expr.And, lhs, cmp_expr st))
    | _ -> lhs
  in
  go (cmp_expr st)

and cmp_expr st =
  let lhs = xor_expr st in
  let op =
    match peek st with
    | Lexer.LT -> Some Expr.Lt
    | Lexer.LE -> Some Expr.Le
    | Lexer.GT -> Some Expr.Gt
    | Lexer.GE -> Some Expr.Ge
    | Lexer.EQEQ -> Some Expr.Eq
    | Lexer.NE -> Some Expr.Ne
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
      advance st;
      Expr.Bin (op, lhs, xor_expr st)

and xor_expr st =
  let rec go lhs =
    match peek st with
    | Lexer.CARET ->
        advance st;
        go (Expr.Bin (Expr.Xor, lhs, shift_expr st))
    | _ -> lhs
  in
  go (shift_expr st)

and shift_expr st =
  let rec go lhs =
    match peek st with
    | Lexer.SHL ->
        advance st;
        go (Expr.Bin (Expr.Shl, lhs, add_expr st))
    | Lexer.SHR ->
        advance st;
        go (Expr.Bin (Expr.Shr, lhs, add_expr st))
    | _ -> lhs
  in
  go (add_expr st)

and add_expr st =
  let rec go lhs =
    match peek st with
    | Lexer.PLUS ->
        advance st;
        go (Expr.Bin (Expr.Add, lhs, mul_expr st))
    | Lexer.MINUS ->
        advance st;
        go (Expr.Bin (Expr.Sub, lhs, mul_expr st))
    | _ -> lhs
  in
  go (mul_expr st)

and mul_expr st =
  let rec go lhs =
    match peek st with
    | Lexer.STAR ->
        advance st;
        go (Expr.Bin (Expr.Mul, lhs, unary_expr st))
    | Lexer.SLASH ->
        advance st;
        go (Expr.Bin (Expr.Div, lhs, unary_expr st))
    | Lexer.PERCENT ->
        advance st;
        go (Expr.Bin (Expr.Mod, lhs, unary_expr st))
    | _ -> lhs
  in
  go (unary_expr st)

and unary_expr st =
  match peek st with
  | Lexer.MINUS ->
      advance st;
      Expr.Neg (unary_expr st)
  | Lexer.BANG ->
      advance st;
      Expr.Not (unary_expr st)
  | _ -> primary st

and primary st =
  match next st with
  | Lexer.INT n -> Expr.Int n
  | Lexer.DOLLAR -> Expr.Param (ident st)
  | Lexer.LPAREN ->
      let e = expr st in
      expect st Lexer.RPAREN;
      e
  | Lexer.IDENT "rank" -> Expr.Rank
  | Lexer.IDENT "np" -> Expr.Nprocs
  | Lexer.IDENT (("log2" | "isqrt") as f) when peek st = Lexer.LPAREN ->
      expect st Lexer.LPAREN;
      let a = expr st in
      expect st Lexer.RPAREN;
      if f = "log2" then Expr.Log2 a else Expr.Isqrt a
  | Lexer.IDENT (("min" | "max") as f) when peek st = Lexer.LPAREN ->
      expect st Lexer.LPAREN;
      let a = expr st in
      expect st Lexer.COMMA;
      let b = expr st in
      expect st Lexer.RPAREN;
      Expr.Bin ((if f = "min" then Expr.Min else Expr.Max), a, b)
  | Lexer.IDENT v -> Expr.Var v
  | got ->
      parse_error ~line:(peek_line st) "expected expression, found %s"
        (Lexer.token_name got)

(* --- statement fields --- *)

let field st name =
  keyword st name;
  expect st Lexer.EQUALS;
  expr st

let peer_field st name =
  keyword st name;
  expect st Lexer.EQUALS;
  match peek st with
  | Lexer.IDENT "any" ->
      advance st;
      Ast.Any_source
  | _ -> Ast.Peer (expr st)

let tag_field st name =
  keyword st name;
  expect st Lexer.EQUALS;
  match peek st with
  | Lexer.IDENT "any" ->
      advance st;
      Ast.Any_tag
  | _ -> Ast.Tag (expr st)

let req_field st name =
  keyword st name;
  expect st Lexer.EQUALS;
  ident st

let opt_label st =
  match peek st with
  | Lexer.IDENT "label" ->
      advance st;
      Some (string_lit st)
  | _ -> None

let ident_list st =
  expect st Lexer.LPAREN;
  let rec go acc =
    match peek st with
    | Lexer.RPAREN ->
        advance st;
        List.rev acc
    | Lexer.COMMA ->
        advance st;
        go acc
    | _ -> go (ident st :: acc)
  in
  go []

(* --- statements --- *)

let loc_of st line = Loc.v ~file:st.file ~line

let rec stmts_until_rbrace st =
  let rec go acc =
    match peek st with
    | Lexer.RBRACE ->
        advance st;
        List.rev acc
    | Lexer.EOF -> parse_error ~line:(peek_line st) "unexpected end of input"
    | _ -> go (stmt st :: acc)
  in
  go []

and block st =
  expect st Lexer.LBRACE;
  stmts_until_rbrace st

and stmt st =
  let line = peek_line st in
  let loc = loc_of st line in
  let kw = ident st in
  let node =
    match kw with
    | "let" ->
        let var = ident st in
        expect st Lexer.EQUALS;
        let value = expr st in
        expect st Lexer.SEMI;
        Ast.Let { var; value }
    | "loop" ->
        let var = ident st in
        expect st Lexer.EQUALS;
        let count = expr st in
        let label = opt_label st in
        let body = block st in
        Ast.Loop { var; count; body; label }
    | "if" ->
        let cond = expr st in
        let then_ = block st in
        let else_ =
          match peek st with
          | Lexer.IDENT "else" ->
              advance st;
              block st
          | _ -> []
        in
        Ast.Branch { cond; then_; else_ }
    | "comp" ->
        let label = opt_label st in
        let flops = field st "flops" in
        let mem = field st "mem" in
        let ints = field st "ints" in
        keyword st "locality";
        expect st Lexer.EQUALS;
        let locality = number st in
        expect st Lexer.SEMI;
        Ast.Comp { label; flops; mem; ints; locality }
    | "call" ->
        let callee = ident st in
        expect st Lexer.LPAREN;
        let rec args acc =
          match peek st with
          | Lexer.RPAREN ->
              advance st;
              List.rev acc
          | Lexer.COMMA ->
              advance st;
              args acc
          | _ ->
              let name = ident st in
              expect st Lexer.EQUALS;
              let e = expr st in
              args ((name, e) :: acc)
        in
        let args = args [] in
        expect st Lexer.SEMI;
        Ast.Call { callee; args }
    | "icall" ->
        let selector = field st "sel" in
        let targets = ident_list st in
        expect st Lexer.SEMI;
        Ast.Icall { selector; targets }
    | "send" ->
        let dest = field st "dest" in
        let tag = field st "tag" in
        let bytes = field st "bytes" in
        expect st Lexer.SEMI;
        Ast.Mpi (Ast.Send { dest; tag; bytes })
    | "recv" ->
        let src = peer_field st "src" in
        let tag = tag_field st "tag" in
        let bytes = field st "bytes" in
        expect st Lexer.SEMI;
        Ast.Mpi (Ast.Recv { src; tag; bytes })
    | "isend" ->
        let dest = field st "dest" in
        let tag = field st "tag" in
        let bytes = field st "bytes" in
        let req = req_field st "req" in
        expect st Lexer.SEMI;
        Ast.Mpi (Ast.Isend { dest; tag; bytes; req })
    | "irecv" ->
        let src = peer_field st "src" in
        let tag = tag_field st "tag" in
        let bytes = field st "bytes" in
        let req = req_field st "req" in
        expect st Lexer.SEMI;
        Ast.Mpi (Ast.Irecv { src; tag; bytes; req })
    | "wait" ->
        let req = req_field st "req" in
        expect st Lexer.SEMI;
        Ast.Mpi (Ast.Wait { req })
    | "waitall" ->
        keyword st "reqs";
        expect st Lexer.EQUALS;
        let reqs = ident_list st in
        expect st Lexer.SEMI;
        Ast.Mpi (Ast.Waitall { reqs })
    | "sendrecv" ->
        let dest = field st "dest" in
        let stag = field st "stag" in
        let sbytes = field st "sbytes" in
        let src = peer_field st "src" in
        let rtag = tag_field st "rtag" in
        let rbytes = field st "rbytes" in
        expect st Lexer.SEMI;
        Ast.Mpi (Ast.Sendrecv { dest; stag; sbytes; src; rtag; rbytes })
    | "barrier" ->
        expect st Lexer.SEMI;
        Ast.Mpi Ast.Barrier
    | "bcast" ->
        let root = field st "root" in
        let bytes = field st "bytes" in
        expect st Lexer.SEMI;
        Ast.Mpi (Ast.Bcast { root; bytes })
    | "reduce" ->
        let root = field st "root" in
        let bytes = field st "bytes" in
        expect st Lexer.SEMI;
        Ast.Mpi (Ast.Reduce { root; bytes })
    | "allreduce" ->
        let bytes = field st "bytes" in
        expect st Lexer.SEMI;
        Ast.Mpi (Ast.Allreduce { bytes })
    | "alltoall" ->
        let bytes = field st "bytes" in
        expect st Lexer.SEMI;
        Ast.Mpi (Ast.Alltoall { bytes })
    | "allgather" ->
        let bytes = field st "bytes" in
        expect st Lexer.SEMI;
        Ast.Mpi (Ast.Allgather { bytes })
    | other -> parse_error ~line "unknown statement keyword %S" other
  in
  { Ast.loc; node }

let func st =
  let line = peek_line st in
  keyword st "func";
  let floc = loc_of st line in
  let fname = ident st in
  let fparams = ident_list st in
  let fbody = block st in
  { Ast.fname; fparams; fbody; floc }

let parse ?(file = "<string>") src =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; pos = 0; file } in
  keyword st "program";
  let pname = string_lit st in
  let rec params acc =
    match peek st with
    | Lexer.IDENT "param" ->
        advance st;
        let name = ident st in
        expect st Lexer.EQUALS;
        let value = int_lit st in
        params ((name, value) :: acc)
    | _ -> List.rev acc
  in
  let params = params [] in
  let rec funcs acc =
    match peek st with
    | Lexer.EOF -> List.rev acc
    | _ -> funcs (func st :: acc)
  in
  let funcs = funcs [] in
  { Ast.pname; file; params; funcs; main = "main" }
