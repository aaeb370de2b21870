(** Delay injection (the Fig. 2 experiment): add wall time when a given
    rank executes a given source location. *)

open Scalana_mlang

type rule

type t

val empty : t

(** [delay ?ranks ?loc ?every seconds] — a rule adding [seconds] when one
    of [ranks] (default: all) executes [loc] (default: any computation),
    on every [every]-th execution (default 1).  Raises
    [Invalid_argument] unless [seconds] is finite and [>= 0] and
    [every >= 1]. *)
val delay : ?ranks:int list -> ?loc:Loc.t -> ?every:int -> float -> rule

val create : rule list -> t

(** Extra seconds to charge for this execution; stateful ([every]). *)
val extra : t -> rank:int -> loc:Loc.t -> float

val is_empty : t -> bool
