(** A fixed pool of worker domains for the embarrassingly parallel
    stages of the analysis (per-scale profiled runs, per-scale PPG
    builds, per-vertex log-log fits, per-function local PSGs).

    The pool is deliberately minimal: stdlib [Domain]/[Mutex]/[Condition]
    only, order-preserving [parallel_map], chunked scheduling, and a
    graceful sequential fallback so callers never have to special-case
    single-core machines or nested use. *)

type t
(** A pool of worker domains plus the calling domain.  A pool of size
    [n] spawns [n - 1] workers; the caller participates in draining the
    task queue, so [size] is the total parallelism. *)

val default_size : unit -> int
(** [min 8 (Domain.recommended_domain_count ())] — the analysis fan-outs
    are small (a handful of scales, hundreds of vertices), so more
    domains than that only add spawn cost. *)

val create : ?size:int -> unit -> t
(** Spawn a pool of [size] (default {!default_size}) units of
    parallelism.  [size <= 1] spawns no domains at all.
    Kept: the pool's lifecycle, which [with_pool] composes; the pool tests
    drive one pool across many maps. *)

(** Kept: the pool's lifecycle, which [with_pool] composes; the pool tests
    read it. *)
val size : t -> int

val shutdown : t -> unit
(** Stop and join the worker domains.  Must not be called while a
    {!parallel_map} on this pool is in flight.  Idempotent.
    Kept: the pool's lifecycle, which [with_pool] composes; the pool tests
    drive one pool across many maps. *)

val with_pool : size:int -> (t option -> 'a) -> 'a
(** [with_pool ~size f] runs [f (Some pool)] with a freshly created pool
    and shuts it down afterwards (also on exception); when [size <= 1]
    it runs [f None] without spawning anything. *)

val parallel_map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving map.  Falls back to [List.map] when [pool] is
    absent, has size [<= 1], the input has fewer than two elements, or
    the call happens inside a pool worker (nested use).  The input is
    split into contiguous chunks (several per unit of parallelism, for
    load balance) and the chunks are drained by the workers and the
    caller.

    Exceptions raised by [f] are caught in the workers and re-raised in
    the caller; when several elements fail, the exception of the
    smallest input index is propagated, so failure behaviour is
    deterministic regardless of scheduling. *)
