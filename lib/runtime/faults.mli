(** Fault injection: declarative, deterministic failure plans — rank
    deaths, clock skew, poisoned metrics, dropped scales — applied at
    simulation time (via {!Exec}), plus artifact-layer damage helpers
    (truncation, bit flips).  Same (seed, nprocs, attempt) ⇒ same
    faults; a retry with a new attempt number re-draws the probabilistic
    ones. *)

type poison_kind = [ `Nan | `Negative ]

type fault =
  | Kill_rank of { rank : int; after : float; prob : float }
  | Clock_skew of { rank : int; factor : float }
  | Poison_metric of { ranks : int list option; kind : poison_kind; prob : float }
  | Drop_scale of { nprocs : int }

type plan = { seed : int; faults : fault list }

val empty : plan
val plan : ?seed:int -> fault list -> plan

(** [kill_rank ~rank ~after ()] — the rank dies once its simulated clock
    passes [after] seconds; with [prob] < 1 the death is drawn per
    attempt, so a retry may survive. *)
val kill_rank : ?prob:float -> rank:int -> after:float -> unit -> fault

(** The rank's computation runs [factor] times slower.  Raises
    [Invalid_argument] unless [factor] is finite and positive.
    Kept: fault-injection test hook. *)
val clock_skew : rank:int -> factor:float -> fault

(** Per-(rank, vertex) chance of the recorded time being NaN/negative
    ([ranks] defaults to all).
    Kept: fault-injection test hook. *)
val poison_metric : ?ranks:int list -> ?prob:float -> poison_kind -> fault

(** The whole run at this scale never happens.
    Kept: fault-injection test hook. *)
val drop_scale : int -> fault

val drops_scale : plan -> nprocs:int -> bool

(** A uniform draw in [0, 1) keyed by an integer tuple; the same key
    yields the same draw on any platform.  Shared with the elastic
    recovery layer ({!Elastic}), whose seeded detection jitter must come
    from the same generator family as every other fault draw. *)
val draw : int list -> float

(** A plan armed for one concrete run: probabilistic faults drawn from
    (seed, nprocs, attempt). *)
type armed

val none : armed
val is_none : armed -> bool
val arm : plan -> nprocs:int -> attempt:int -> armed

(** Simulated time at which [rank] dies, if armed. *)
val kill_time : armed -> rank:int -> float option

(** Multiplier on [rank]'s computation cost (1.0 when unskewed). *)
val comp_scale : armed -> rank:int -> float

(** Whether the value recorded at (rank, vertex) is poisoned. *)
val poison : armed -> rank:int -> vertex:int -> poison_kind option

(** Cut a file to its first [at_byte] bytes (filled disk / dead writer). *)
val truncate_file : string -> at_byte:int -> unit

(** XOR one byte of the file (a bit flip in storage).
    Kept: fault-injection test hook. *)
val corrupt_byte : string -> at_byte:int -> ?xor:int -> unit -> unit
