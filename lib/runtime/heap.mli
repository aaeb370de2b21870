(** Binary min-heap on (float key, int payload); the scheduler's ready
    queue.

    The tie order among equal keys is emergent from the exact push/pop
    sift procedures and is part of the simulator's deterministic
    semantics (it decides which of two equal-clock processes runs first,
    hence wildcard matching order and last-arrival ranks).  The sift
    code is therefore a frozen contract. *)

type t

val create : ?capacity:int -> unit -> t
val push : t -> float -> int -> unit

(** Remove the minimum entry and return its payload, or [-1] when
    the heap is empty (the key is discarded). *)
val pop_val : t -> int
