(** Recursive-descent parser for MiniMPI concrete syntax (the grammar is
    documented at the top of the implementation; {!Pretty.render} emits
    exactly this syntax). *)

exception Parse_error of { line : int; msg : string }

(** [parse ~file src] parses a whole program. Statement locations use
    [file] and the 1-based source line. Raises {!Parse_error} or
    {!Lexer.Lex_error}. *)
val parse : ?file:string -> string -> Ast.program
