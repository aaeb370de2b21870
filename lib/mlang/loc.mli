(** Source locations for MiniMPI programs. *)

type t = { file : string; line : int }

val v : file:string -> line:int -> t

(** Location used for synthesized nodes that have no source position. *)
val none : t

val line : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string
val pp : t Fmt.t
