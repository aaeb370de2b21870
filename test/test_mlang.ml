(* Tests for the MiniMPI language substrate: expressions, lexer, parser,
   builder, validator, pretty-printer. *)

open Scalana_mlang
open Testutil

(* --- Expr --- *)

(* The evaluator under test is [Expr.Compiled]: an [env] is the context
   an expression is compiled (scale, parameters, variable slots) and
   evaluated (rank, slot values) in. *)
type env = {
  rank : int;
  nprocs : int;
  params : (string * int) list;
  vars : (string * int) list;
}

let env ?(rank = 3) ?(nprocs = 8) ?(params = [ ("n", 100) ]) ?(vars = []) () =
  { rank; nprocs; params; vars }

let eval env e =
  let c_vars = Array.of_list (List.map snd env.vars) in
  let var_slot v =
    Option.value ~default:(-1)
      (List.find_index (fun (n, _) -> String.equal n v) env.vars)
  in
  Expr.Compiled.eval
    {
      Expr.Compiled.c_rank = env.rank;
      c_vars;
      c_bound = Bytes.make (Array.length c_vars) '\001';
    }
    (Expr.Compiled.compile ~nprocs:env.nprocs
       ~param:(fun p -> List.assoc_opt p env.params)
       ~var_slot e)

let test_eval_basic () =
  let e = env () in
  check_int "int" 42 (eval e (Int 42));
  check_int "rank" 3 (eval e Rank);
  check_int "np" 8 (eval e Nprocs);
  check_int "param" 100 (eval e (Param "n"));
  check_int "add" 7 (eval e (Bin (Add, Int 3, Int 4)));
  check_int "mul" 12 (eval e (Bin (Mul, Int 3, Int 4)));
  check_int "div" 3 (eval e (Bin (Div, Int 13, Int 4)));
  check_int "mod" 1 (eval e (Bin (Mod, Int 13, Int 4)));
  check_int "min" 3 (eval e (Bin (Min, Int 3, Int 4)));
  check_int "max" 4 (eval e (Bin (Max, Int 3, Int 4)));
  check_int "shl" 48 (eval e (Bin (Shl, Int 3, Int 4)));
  check_int "shr" 3 (eval e (Bin (Shr, Int 13, Int 2)));
  check_int "neg" (-5) (eval e (Neg (Int 5)));
  check_int "not0" 1 (eval e (Not (Int 0)));
  check_int "not1" 0 (eval e (Not (Int 7)))

let test_eval_bool_ops () =
  let e = env () in
  check_int "lt" 1 (eval e (Bin (Lt, Int 1, Int 2)));
  check_int "le" 1 (eval e (Bin (Le, Int 2, Int 2)));
  check_int "gt" 0 (eval e (Bin (Gt, Int 1, Int 2)));
  check_int "ge" 0 (eval e (Bin (Ge, Int 1, Int 2)));
  check_int "eq" 1 (eval e (Bin (Eq, Int 2, Int 2)));
  check_int "ne" 1 (eval e (Bin (Ne, Int 1, Int 2)));
  check_int "and" 0 (eval e (Bin (And, Int 1, Int 0)));
  check_int "or" 1 (eval e (Bin (Or, Int 1, Int 0)));
  check_int "xor" 6 (eval e (Bin (Xor, Int 5, Int 3)))

let test_eval_errors () =
  let e = env () in
  Alcotest.check_raises "div0" (Expr.Eval_error "division by zero") (fun () ->
      ignore (eval e (Bin (Div, Int 1, Int 0))));
  Alcotest.check_raises "mod0" (Expr.Eval_error "modulo by zero") (fun () ->
      ignore (eval e (Bin (Mod, Int 1, Int 0))));
  Alcotest.check_raises "unbound var" (Expr.Eval_error "unbound variable \"y\"")
    (fun () -> ignore (eval e (Var "y")));
  Alcotest.check_raises "unbound param"
    (Expr.Eval_error "unbound parameter \"zz\"") (fun () ->
      ignore (eval e (Param "zz")))

let test_log2_isqrt () =
  let e = env () in
  check_int "log2 1" 0 (eval e (Log2 (Int 1)));
  check_int "log2 2" 1 (eval e (Log2 (Int 2)));
  check_int "log2 1024" 10 (eval e (Log2 (Int 1024)));
  check_int "log2 1023" 9 (eval e (Log2 (Int 1023)));
  check_int "log2 0" 0 (eval e (Log2 (Int 0)));
  check_int "isqrt 0" 0 (eval e (Isqrt (Int 0)));
  check_int "isqrt 1" 1 (eval e (Isqrt (Int 1)));
  check_int "isqrt 15" 3 (eval e (Isqrt (Int 15)));
  check_int "isqrt 16" 4 (eval e (Isqrt (Int 16)));
  check_int "isqrt 17" 4 (eval e (Isqrt (Int 17)))

let isqrt_prop =
  qtest "isqrt r*r <= v < (r+1)^2" QCheck2.Gen.(int_bound 10_000_000)
    (fun v ->
      let e = env () in
      let r = eval e (Isqrt (Int v)) in
      (r * r <= v && (r + 1) * (r + 1) > v) || v = 0)

let log2_prop =
  qtest "log2 2^k = k" QCheck2.Gen.(int_bound 60) (fun k ->
      let e = env () in
      eval e (Log2 (Int (1 lsl k))) = k)

let test_free_vars_params () =
  let open Expr in
  let e = Bin (Add, Var "i", Bin (Mul, Param "n", Var "j")) in
  Alcotest.(check (slist string compare))
    "free vars" [ "i"; "j" ] (free_vars e);
  Alcotest.(check (list string)) "params" [ "n" ] (params e);
  check_bool "static" false (is_static e);
  check_bool "static const" true (is_static (Bin (Add, Param "n", Nprocs)));
  check_bool "rank dep" true (depends_on_rank (Bin (Mod, Rank, Int 2)));
  check_bool "rank indep" false (depends_on_rank (Param "n"))

(* expression generator without vars, for round-trip tests *)
let expr_gen : Expr.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let binops =
    [
      Expr.Add; Sub; Mul; Div; Mod; Min; Max; Shl; Shr; Lt; Le; Gt; Ge; Eq; Ne;
      And; Or; Xor;
    ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               map (fun i -> Expr.Int i) (int_bound 1000);
               return Expr.Rank;
               return Expr.Nprocs;
               return (Expr.Param "n");
             ]
         else
           oneof
             [
               map (fun i -> Expr.Int i) (int_bound 1000);
               map2
                 (fun op (a, b) -> Expr.Bin (op, a, b))
                 (oneofl binops)
                 (pair (self (n / 2)) (self (n / 2)));
               map (fun a -> Expr.Neg a) (self (n - 1));
               map (fun a -> Expr.Not a) (self (n - 1));
               map (fun a -> Expr.Log2 a) (self (n - 1));
               map (fun a -> Expr.Isqrt a) (self (n - 1));
             ])

let expr_roundtrip =
  qtest ~count:300 "expr pp/parse round trip" expr_gen (fun e ->
      let src =
        Printf.sprintf
          "program \"t\"\nparam n = 3\nfunc main() {\n  comp flops=%s mem=0 ints=0 locality=0.9;\n}\n"
          (Expr.to_string e)
      in
      let prog = Parser.parse src in
      match (Ast.main_func prog).fbody with
      | [ { node = Ast.Comp w; _ } ] -> Expr.equal e w.flops
      | _ -> false)

let expr_eval_stable =
  qtest ~count:300 "pp/parse preserves evaluation" expr_gen (fun e ->
      let src =
        Printf.sprintf
          "program \"t\"\nparam n = 7\nfunc main() {\n  comp flops=%s mem=0 ints=0 locality=0.9;\n}\n"
          (Expr.to_string e)
      in
      let prog = Parser.parse src in
      match (Ast.main_func prog).fbody with
      | [ { node = Ast.Comp w; _ } ] ->
          let ev x =
            try Some (eval (env ~params:[ ("n", 7) ] ()) x)
            with Expr.Eval_error _ -> None
          in
          ev e = ev w.flops
      | _ -> false)


let is_static_means_rank_invariant =
  qtest ~count:300 "is_static implies rank-invariant value" expr_gen (fun e ->
      (not (Expr.is_static e))
      ||
      let ev rank =
        try
          Some
            (eval
               (env ~rank ~nprocs:16 ~params:[ ("n", 5) ] ())
               e)
        with Expr.Eval_error _ -> None
      in
      ev 0 = ev 7 && ev 7 = ev 15)

let depends_on_rank_sound =
  qtest ~count:300 "rank-independent exprs evaluate equally on all ranks"
    expr_gen (fun e ->
      Expr.depends_on_rank e
      ||
      let ev rank =
        try
          Some
            (eval
               (env ~rank ~nprocs:16 ~params:[ ("n", 5) ] ())
               e)
        with Expr.Eval_error _ -> None
      in
      ev 1 = ev 13)

(* --- Lexer --- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "foo 42 3.5 \"hi\" ( ) { } , ; = $ + - * / % ^ !" in
  let kinds = List.map fst toks in
  Alcotest.(check int) "count" 20 (List.length kinds);
  (match kinds with
  | Lexer.IDENT "foo" :: Lexer.INT 42 :: Lexer.FLOAT f :: Lexer.STRING "hi" :: _
    ->
      check_float "float" 3.5 f
  | _ -> Alcotest.fail "unexpected token stream");
  match List.rev kinds with
  | Lexer.EOF :: _ -> ()
  | _ -> Alcotest.fail "missing EOF"

let test_lexer_operators () =
  let toks = Lexer.tokenize "<= >= == != && || << >> < >" |> List.map fst in
  Alcotest.(check bool) "ops" true
    (toks
    = [
        Lexer.LE; Lexer.GE; Lexer.EQEQ; Lexer.NE; Lexer.ANDAND; Lexer.OROR;
        Lexer.SHL; Lexer.SHR; Lexer.LT; Lexer.GT; Lexer.EOF;
      ])

let test_lexer_comments_lines () =
  let toks = Lexer.tokenize "a // comment\nb # another\nc" in
  (match toks with
  | [ (Lexer.IDENT "a", 1); (Lexer.IDENT "b", 2); (Lexer.IDENT "c", 3);
      (Lexer.EOF, 3) ] ->
      ()
  | _ -> Alcotest.fail "comment/line tracking wrong");
  Alcotest.check_raises "unterminated string"
    (Lexer.Lex_error { line = 1; msg = "unterminated string literal" })
    (fun () -> ignore (Lexer.tokenize "\"abc"))

let test_lexer_bad_char () =
  match Lexer.tokenize "a @ b" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Lexer.Lex_error { line = 1; _ } -> ()

(* --- Parser --- *)

let sample_source =
  {|program "sample"
param n = 64
param niter = 5

func work(x) {
  comp label "kernel" flops=$n * x mem=$n ints=10 locality=0.8;
}

func main() {
  let half = np / 2;
  loop it = $niter label "outer" {
    call work(x=it + 1);
    if rank < half {
      isend dest=rank + half tag=3 bytes=1024 req=s0;
      wait req=s0;
    } else {
      recv src=any tag=any bytes=1024;
    }
    allreduce bytes=8;
  }
  barrier;
}
|}

let test_parse_sample () =
  let prog = Parser.parse ~file:"sample.mmp" sample_source in
  check_string "name" "sample" prog.pname;
  check_int "params" 2 (List.length prog.params);
  check_int "funcs" 2 (List.length prog.funcs);
  (match Validate.run prog with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "validate: %s" (Validate.error_to_string (List.hd es)));
  let main = Ast.main_func prog in
  check_int "main stmts" 3 (List.length main.fbody);
  (* line numbers come from the source *)
  match main.fbody with
  | [ { node = Ast.Let _; loc }; { node = Ast.Loop l; _ }; { node = Ast.Mpi Ast.Barrier; _ } ]
    ->
      check_int "let line" 10 (Loc.line loc);
      check_int "loop body" 3 (List.length l.body)
  | _ -> Alcotest.fail "unexpected main body"

let test_parse_errors () =
  let bad msgs src =
    match Parser.parse src with
    | _ -> Alcotest.failf "expected parse error (%s)" msgs
    | exception Parser.Parse_error _ -> ()
  in
  bad "no header" "func main() {}";
  bad "missing semi" "program \"x\"\nfunc main() { barrier }";
  bad "unknown stmt" "program \"x\"\nfunc main() { frobnicate; }";
  bad "bad field order" "program \"x\"\nfunc main() { send tag=1 dest=0 bytes=8; }";
  bad "unclosed brace" "program \"x\"\nfunc main() { barrier;"

let test_parse_wildcards () =
  let prog =
    Parser.parse
      "program \"w\"\nfunc main() { recv src=any tag=any bytes=4; }"
  in
  match (Ast.main_func prog).fbody with
  | [ { node = Ast.Mpi (Ast.Recv { src = Ast.Any_source; tag = Ast.Any_tag; _ }); _ } ]
    ->
      ()
  | _ -> Alcotest.fail "wildcards not parsed"

(* --- Pretty / round trip --- *)

let test_render_parse_fixpoint () =
  List.iter
    (fun prog ->
      let r1 = Pretty.render prog in
      let prog2 = Parser.parse ~file:prog.Ast.file r1 in
      let r2 = Pretty.render prog2 in
      check_string ("fixpoint " ^ prog.Ast.pname) r1 r2)
    [ ring_program (); fig3_program (); recursion_program () ]

let test_registry_roundtrip () =
  List.iter
    (fun name ->
      let entry = Scalana_apps.Registry.find name in
      let prog = entry.make () in
      let r1 = Pretty.render prog in
      let prog2 = Parser.parse ~file:prog.Ast.file r1 in
      let r2 = Pretty.render prog2 in
      check_string ("fixpoint " ^ name) r1 r2;
      match Validate.run prog2 with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "%s reparsed invalid: %s" name
            (Validate.error_to_string (List.hd es)))
    Scalana_apps.Registry.names

let test_snippet_alignment () =
  let prog = fig3_program () in
  let lines = Array.of_list (String.split_on_char '\n' (Pretty.render prog)) in
  Ast.iter_program
    (fun s ->
      let line = Loc.line s.Ast.loc in
      let text = lines.(line - 1) in
      let keyword =
        match s.Ast.node with
        | Ast.Comp _ -> "comp"
        | Ast.Loop _ -> "loop"
        | Ast.Branch _ -> "if"
        | Ast.Call _ -> "call"
        | Ast.Icall _ -> "icall"
        | Ast.Let _ -> "let"
        | Ast.Mpi c -> (
            match c with
            | Ast.Send _ -> "send"
            | Ast.Recv _ -> "recv"
            | _ -> String.sub (String.lowercase_ascii (Ast.mpi_name c)) 4 3)
      in
      if
        not
          (String.length text >= String.length keyword
          && String.trim text |> fun t ->
             String.length t >= String.length keyword
             && String.sub t 0 (String.length keyword) = keyword)
      then
        Alcotest.failf "line %d %S does not start with %S" line text keyword)
    prog


let test_loc_basics () =
  let a = Loc.v ~file:"a.mmp" ~line:3 and b = Loc.v ~file:"a.mmp" ~line:4 in
  check_bool "equal self" true (Loc.equal a a);
  check_bool "not equal" false (Loc.equal a b);
  check_bool "compare lines" true (Loc.compare a b < 0);
  check_bool "compare files" true
    (Loc.compare (Loc.v ~file:"a" ~line:9) (Loc.v ~file:"b" ~line:1) < 0);
  check_int "hash stable" (Hashtbl.hash a)
    (Hashtbl.hash (Loc.v ~file:"a.mmp" ~line:3));
  check_string "to_string" "a.mmp:3" (Loc.to_string a);
  check_string "none" "<builtin>:0" (Loc.to_string Loc.none)

let test_parse_intrinsics () =
  let prog =
    Parser.parse
      "program \"x\"\nparam n = -5\nfunc main() { comp flops=min(log2(np), isqrt($n)) mem=max(1, 2) ints=0 locality=0.5; }"
  in
  Alcotest.(check (list (pair string int))) "negative param" [ ("n", -5) ]
    prog.params;
  match (Ast.main_func prog).fbody with
  | [ { node = Ast.Comp w; _ } ] -> (
      match w.flops with
      | Expr.Bin (Expr.Min, Expr.Log2 Expr.Nprocs, Expr.Isqrt (Expr.Param "n"))
        ->
          ()
      | other -> Alcotest.failf "unexpected expr %s" (Expr.to_string other))
  | _ -> Alcotest.fail "unexpected body"

let test_snippet_bounds () =
  let prog = fig3_program () in
  let lines = String.split_on_char '\n' (Pretty.render prog) in
  let n = List.length lines in
  check_bool "snippet at line 1" true
    (Pretty.snippet prog (Loc.v ~file:"fig3.mmp" ~line:1) <> []);
  check_bool "snippet past end empty" true
    (Pretty.snippet prog (Loc.v ~file:"fig3.mmp" ~line:(n + 50)) = []);
  check_bool "snippet line 0 empty" true
    (Pretty.snippet prog (Loc.v ~file:"fig3.mmp" ~line:0) = []);
  (* wide context clamps to the file *)
  check_bool "wide context" true
    (List.length (Pretty.snippet ~context:1000 prog (Loc.v ~file:"f" ~line:2))
    <= n)

(* A negative context would print nothing under a cause, not even the
   cause's own line, so it is refused; context 0 is that line alone. *)
let test_snippet_rejects_negative_context () =
  let prog = fig3_program () in
  let loc = Loc.v ~file:"fig3.mmp" ~line:2 in
  check_int "context 0 is one line" 1
    (List.length (Pretty.snippet ~context:0 prog loc));
  match Pretty.snippet ~context:(-1) prog loc with
  | _ -> Alcotest.fail "negative context accepted"
  | exception Invalid_argument _ -> ()

(* --- Builder --- *)

let test_builder_lines_monotone () =
  let prog = fig3_program () in
  let last = ref 0 in
  Ast.iter_program
    (fun s ->
      let l = Loc.line s.Ast.loc in
      if l <= !last then Alcotest.failf "line %d not increasing" l;
      last := l)
    prog

let test_builder_params_order () =
  let b = Builder.create ~file:"t.mmp" ~name:"t" () in
  Builder.param b "a" 1;
  Builder.param b "b" 2;
  Builder.func b "main" (fun () -> []);
  let prog = Builder.program b in
  Alcotest.(check (list (pair string int)))
    "params" [ ("a", 1); ("b", 2) ] prog.params

(* --- Validate --- *)

let expect_invalid expected prog =
  match Validate.run prog with
  | Ok () -> Alcotest.failf "expected validation error ~ %S" expected
  | Error errs ->
      let found =
        List.exists
          (fun e ->
            let s = Validate.error_to_string e in
            let re = Str.regexp_string expected in
            try
              ignore (Str.search_forward re s 0);
              true
            with Not_found -> false)
          errs
      in
      if not found then
        Alcotest.failf "no error matching %S in: %s" expected
          (String.concat "; " (List.map Validate.error_to_string errs))

let build_prog f =
  let b = Builder.create ~file:"v.mmp" ~name:"v" () in
  f b;
  Builder.program b

let test_validate_errors () =
  let open Expr.Infix in
  expect_invalid "main function"
    (build_prog (fun b -> Builder.func b "not_main" (fun () -> [])));
  expect_invalid "undefined function"
    (build_prog (fun b ->
         Builder.func b "main" (fun () -> [ Builder.call b "ghost" ])));
  expect_invalid "unbound variable"
    (build_prog (fun b ->
         Builder.func b "main" (fun () ->
             [ Builder.comp b ~flops:(v "nope") ~mem:(i 0) () ])));
  expect_invalid "undeclared parameter"
    (build_prog (fun b ->
         Builder.func b "main" (fun () ->
             [ Builder.comp b ~flops:(p "nope") ~mem:(i 0) () ])));
  expect_invalid "never posted"
    (build_prog (fun b ->
         Builder.func b "main" (fun () -> [ Builder.wait b ~req:"r0" ])));
  expect_invalid "misses argument"
    (build_prog (fun b ->
         Builder.func b "f" ~params:[ "x" ] (fun () -> []);
         Builder.func b "main" (fun () -> [ Builder.call b "f" ])));
  expect_invalid "unknown argument"
    (build_prog (fun b ->
         Builder.func b "f" (fun () -> []);
         Builder.func b "main" (fun () ->
             [ Builder.call b "f" ~args:[ ("y", i 1) ] ])));
  expect_invalid "locality"
    (build_prog (fun b ->
         Builder.func b "main" (fun () ->
             [ Builder.comp b ~locality:1.5 ~flops:(i 1) ~mem:(i 1) () ])));
  expect_invalid "no targets"
    (build_prog (fun b ->
         Builder.func b "main" (fun () ->
             [ Builder.icall b ~selector:(i 0) [] ])))

let test_validate_request_discipline () =
  let open Expr.Infix in
  let isend b req = Builder.isend b ~dest:(i 0) ~bytes:(i 8) ~req () in
  expect_invalid "twice"
    (build_prog (fun b ->
         Builder.func b "main" (fun () ->
             [ isend b "r0"; Builder.waitall b ~reqs:[ "r0"; "r0" ] ])));
  expect_invalid "still pending"
    (build_prog (fun b ->
         Builder.func b "main" (fun () -> [ isend b "r0"; isend b "r0" ])));
  (* a handle left pending by one branch arm is still pending after it *)
  expect_invalid "still pending"
    (build_prog (fun b ->
         Builder.func b "main" (fun () ->
             [
               Builder.branch b ~cond:(rank = i 0) (fun () -> [ isend b "r0" ]);
               isend b "r0";
             ])));
  (* completion releases the handle for re-posting *)
  match
    Validate.run
      (build_prog (fun b ->
           Builder.func b "main" (fun () ->
               [
                 isend b "r0";
                 Builder.wait b ~req:"r0";
                 isend b "r0";
                 Builder.waitall b ~reqs:[ "r0" ];
               ])))
  with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "re-post after wait should validate: %s"
        (Validate.error_to_string (List.hd es))

let test_validate_ok () =
  List.iter
    (fun prog ->
      match Validate.run prog with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "unexpected error: %s"
            (Validate.error_to_string (List.hd es)))
    [ ring_program (); fig3_program (); recursion_program () ]

(* --- Ast helpers --- *)

let test_ast_helpers () =
  let prog = fig3_program () in
  check_bool "stmt_count" true (Ast.stmt_count prog > 5);
  check_int "mpi calls" 3 (List.length (mpi_calls prog));
  check_bool "collective" true (Ast.is_collective (Ast.Bcast { root = Int 0; bytes = Int 8 }));
  check_bool "p2p" true
    (not
       (Ast.is_collective
          (Ast.Send { dest = Int 0; tag = Int 0; bytes = Int 0 })));
  check_bool "can_wait recv" true
    (Ast.can_wait (Ast.Recv { src = Ast.Any_source; tag = Ast.Any_tag; bytes = Int 0 }));
  check_bool "can_wait isend" false
    (Ast.can_wait (Ast.Isend { dest = Int 0; tag = Int 0; bytes = Int 0; req = "r" }));
  let main = Ast.main_func prog in
  check_string "main name" "main" main.fname;
  match Ast.stmt_at prog (Loc.v ~file:"fig3.mmp" ~line:9999) with
  | None -> ()
  | Some _ -> Alcotest.fail "stmt_at out of range"

let () =
  Alcotest.run "mlang"
    [
      ( "expr",
        [
          Alcotest.test_case "eval basic" `Quick test_eval_basic;
          Alcotest.test_case "eval bool ops" `Quick test_eval_bool_ops;
          Alcotest.test_case "eval errors" `Quick test_eval_errors;
          Alcotest.test_case "log2/isqrt" `Quick test_log2_isqrt;
          isqrt_prop;
          log2_prop;
          Alcotest.test_case "free vars/params" `Quick test_free_vars_params;
          expr_roundtrip;
          expr_eval_stable;
          is_static_means_rank_invariant;
          depends_on_rank_sound;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comments and lines" `Quick
            test_lexer_comments_lines;
          Alcotest.test_case "bad char" `Quick test_lexer_bad_char;
        ] );
      ( "parser",
        [
          Alcotest.test_case "sample program" `Quick test_parse_sample;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "wildcards" `Quick test_parse_wildcards;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "render/parse fixpoint" `Quick
            test_render_parse_fixpoint;
          Alcotest.test_case "registry round trip" `Quick
            test_registry_roundtrip;
          Alcotest.test_case "snippet alignment" `Quick test_snippet_alignment;
          Alcotest.test_case "snippet rejects negative context" `Quick
            test_snippet_rejects_negative_context;
        ] );
      ( "loc",
        [ Alcotest.test_case "basics" `Quick test_loc_basics ] );
      ( "parser-intrinsics",
        [
          Alcotest.test_case "min/log2/isqrt, negative params" `Quick
            test_parse_intrinsics;
          Alcotest.test_case "snippet bounds" `Quick test_snippet_bounds;
        ] );
      ( "builder",
        [
          Alcotest.test_case "monotone lines" `Quick test_builder_lines_monotone;
          Alcotest.test_case "params order" `Quick test_builder_params_order;
        ] );
      ( "validate",
        [
          Alcotest.test_case "error classes" `Quick test_validate_errors;
          Alcotest.test_case "request discipline" `Quick
            test_validate_request_discipline;
          Alcotest.test_case "valid fixtures" `Quick test_validate_ok;
        ] );
      ("ast", [ Alcotest.test_case "helpers" `Quick test_ast_helpers ]);
    ]
