(* Source locations for MiniMPI programs.

   Every statement of a MiniMPI program carries a location; the whole
   analysis pipeline (PSG vertices, PPG vertices, root-cause reports)
   refers back to these, mirroring ScalAna's "report line numbers back to
   the programmer" contract. *)

type t = { file : string; line : int }

let v ~file ~line = { file; line }
let none = { file = "<builtin>"; line = 0 }
let line t = t.line
let equal a b = String.equal a.file b.file && Int.equal a.line b.line
let compare a b =
  match String.compare a.file b.file with
  | 0 -> Int.compare a.line b.line
  | c -> c

let to_string t = Printf.sprintf "%s:%d" t.file t.line
let pp ppf t = Fmt.string ppf (to_string t)
