(* Canonical concrete-syntax renderer for MiniMPI.

   [render] emits the syntax accepted by {!Parser}, so
   [render (Parser.parse (render p)) = render p] — the round-trip property
   tested in the suite.  [snippet] extracts the few lines of the statement
   at a location, which is what the viewer shows under a diagnosed root
   cause (the paper's Fig. 9 lower window). *)

let pp_peer ppf = function
  | Ast.Any_source -> Fmt.string ppf "any"
  | Ast.Peer e -> Expr.pp ppf e

let pp_tag ppf = function
  | Ast.Any_tag -> Fmt.string ppf "any"
  | Ast.Tag e -> Expr.pp ppf e

let pp_mpi ppf call =
  match call with
  | Ast.Send { dest; tag; bytes } ->
      Fmt.pf ppf "send dest=%a tag=%a bytes=%a;" Expr.pp dest Expr.pp tag
        Expr.pp bytes
  | Ast.Recv { src; tag; bytes } ->
      Fmt.pf ppf "recv src=%a tag=%a bytes=%a;" pp_peer src pp_tag tag Expr.pp
        bytes
  | Ast.Isend { dest; tag; bytes; req } ->
      Fmt.pf ppf "isend dest=%a tag=%a bytes=%a req=%s;" Expr.pp dest Expr.pp
        tag Expr.pp bytes req
  | Ast.Irecv { src; tag; bytes; req } ->
      Fmt.pf ppf "irecv src=%a tag=%a bytes=%a req=%s;" pp_peer src pp_tag tag
        Expr.pp bytes req
  | Ast.Wait { req } -> Fmt.pf ppf "wait req=%s;" req
  | Ast.Waitall { reqs } ->
      Fmt.pf ppf "waitall reqs=(%s);" (String.concat ", " reqs)
  | Ast.Sendrecv { dest; stag; sbytes; src; rtag; rbytes } ->
      Fmt.pf ppf "sendrecv dest=%a stag=%a sbytes=%a src=%a rtag=%a rbytes=%a;"
        Expr.pp dest Expr.pp stag Expr.pp sbytes pp_peer src pp_tag rtag
        Expr.pp rbytes
  | Ast.Barrier -> Fmt.string ppf "barrier;"
  | Ast.Bcast { root; bytes } ->
      Fmt.pf ppf "bcast root=%a bytes=%a;" Expr.pp root Expr.pp bytes
  | Ast.Reduce { root; bytes } ->
      Fmt.pf ppf "reduce root=%a bytes=%a;" Expr.pp root Expr.pp bytes
  | Ast.Allreduce { bytes } -> Fmt.pf ppf "allreduce bytes=%a;" Expr.pp bytes
  | Ast.Alltoall { bytes } -> Fmt.pf ppf "alltoall bytes=%a;" Expr.pp bytes
  | Ast.Allgather { bytes } -> Fmt.pf ppf "allgather bytes=%a;" Expr.pp bytes

let pp_label ppf = function
  | None -> ()
  | Some l -> Fmt.pf ppf " label %S" l

(* Rendering tracks the emitted line number so statements land exactly on
   [Loc.line stmt.loc] when the program came from {!Builder} — blank lines
   are inserted to pad, which keeps reports and rendered sources aligned. *)
type out = { buf : Buffer.t; mutable line : int }

let emit out ~indent s =
  Buffer.add_string out.buf (String.make (2 * indent) ' ');
  Buffer.add_string out.buf s;
  Buffer.add_char out.buf '\n';
  out.line <- out.line + 1

let pad_to out target_line =
  while out.line < target_line do
    Buffer.add_char out.buf '\n';
    out.line <- out.line + 1
  done

let stmt_line (s : Ast.stmt) = Loc.line s.loc

let rec emit_stmt out ~indent (s : Ast.stmt) =
  pad_to out (stmt_line s);
  match s.node with
  | Ast.Comp w ->
      let label = Fmt.str "%a" pp_label w.label in
      emit out ~indent
        (Fmt.str "comp%s flops=%a mem=%a ints=%a locality=%g;" label Expr.pp
           w.flops Expr.pp w.mem Expr.pp w.ints w.locality)
  | Ast.Loop l ->
      emit out ~indent
        (Fmt.str "loop %s = %a%a {" l.var Expr.pp l.count pp_label l.label);
      List.iter (emit_stmt out ~indent:(indent + 1)) l.body;
      emit out ~indent "}"
  | Ast.Branch b ->
      emit out ~indent (Fmt.str "if %a {" Expr.pp b.cond);
      List.iter (emit_stmt out ~indent:(indent + 1)) b.then_;
      if b.else_ = [] then emit out ~indent "}"
      else begin
        emit out ~indent "} else {";
        List.iter (emit_stmt out ~indent:(indent + 1)) b.else_;
        emit out ~indent "}"
      end
  | Ast.Call { callee; args } ->
      let arg (n, e) = Printf.sprintf "%s=%s" n (Expr.to_string e) in
      emit out ~indent
        (Fmt.str "call %s(%s);" callee (String.concat ", " (List.map arg args)))
  | Ast.Icall { selector; targets } ->
      emit out ~indent
        (Fmt.str "icall sel=%a (%s);" Expr.pp selector
           (String.concat ", " targets))
  | Ast.Mpi call -> emit out ~indent (Fmt.str "%a" pp_mpi call)
  | Ast.Let { var; value } ->
      emit out ~indent (Fmt.str "let %s = %a;" var Expr.pp value)

let emit_func out (f : Ast.func) =
  pad_to out (Loc.line f.floc);
  emit out ~indent:0
    (Fmt.str "func %s(%s) {" f.fname (String.concat ", " f.fparams));
  List.iter (emit_stmt out ~indent:1) f.fbody;
  emit out ~indent:0 "}"

let render (p : Ast.program) =
  let out = { buf = Buffer.create 4096; line = 1 } in
  emit out ~indent:0 (Fmt.str "program %S" p.pname);
  List.iter
    (fun (name, value) ->
      emit out ~indent:0 (Fmt.str "param %s = %d" name value))
    p.params;
  List.iter (emit_func out) p.funcs;
  Buffer.contents out.buf

let render_lines p = String.split_on_char '\n' (render p)

let snippet ?(context = 1) p loc =
  if context < 0 then
    invalid_arg (Printf.sprintf "Pretty.snippet: context %d < 0" context);
  let lines = Array.of_list (render_lines p) in
  let n = Array.length lines in
  let target = Loc.line loc in
  if target < 1 || target > n then []
  else begin
    let lo = max 1 (target - context) and hi = min n (target + context) in
    let acc = ref [] in
    for i = hi downto lo do
      if i >= 1 && i <= n then
        acc := Fmt.str "%4d | %s" i lines.(i - 1) :: !acc
    done;
    !acc
  end
