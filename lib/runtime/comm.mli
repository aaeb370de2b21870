(** Message matching and collective synchronization: the standard MPI
    two-queue model per receiver (posted receives vs unexpected messages)
    with tag/source wildcards and non-overtaking order, eager/rendezvous
    protocols, and sequence-numbered fully-synchronizing collectives.

    Requests and messages are slots (ints) in the communicator's columns,
    one array per field, read as [t]'s fields.  A request's slot is
    recycled once its posting rank has {!release}d it and it has
    completed; a message's once it is consumed and the receive that
    matched it is recycled.  Queues and cross-links hold slot handles
    that carry the occupant's generation, so a tombstone never matches a
    recycled slot.  Posting and matching allocate only when a column or
    queue doubles; a collective arrival allocates only when it opens an
    instance. *)

open Scalana_mlang

(** Wildcard sentinels for [r_want_src]/[r_want_tag]. *)
val any_src : int

val any_tag : int

(** No request or message ([-1]). *)
val nil : int

(** A per-rank queue of handles. *)
type queue

type t = {
  nprocs : int;
  unexpected : queue array;
  posted : queue array;
  colls : (int, coll) Hashtbl.t;  (** in-flight instances only *)
  mutable on_complete : int -> unit;
  mutable messages_sent : int;
  mutable r_handle : int array;  (** the slot's current handle *)
  mutable r_recv : bool array;  (** a receive, not a send *)
  mutable r_held : bool array;  (** not yet {!release}d *)
  mutable r_completed : bool array;
  mutable r_post_time : float array;  (** receives only *)
  mutable r_want_src : int array;  (** {!any_src} = MPI_ANY_SOURCE *)
  mutable r_want_tag : int array;  (** {!any_tag} = MPI_ANY_TAG *)
  mutable r_key : int array;
  mutable r_loc : Loc.t array;  (** receives only *)
  mutable r_completion : float array;
  mutable r_matched : int array;
      (** handle of the message a receive matched, {!nil} = none; read
          it through {!matched} *)
  mutable r_waiter : int array;
      (** rank blocked on the request, [-1] = none; owned by the
          scheduler *)
  mutable r_free : int array;
  mutable r_nfree : int;
  mutable m_handle : int array;
  mutable m_src : int array;
  mutable m_tag : int array;
  mutable m_bytes : int array;
  mutable m_key : int array;
  mutable m_send_time : float array;
  mutable m_arrival : float array;  (** infinity until scheduled (rendezvous) *)
  mutable m_loc : Loc.t array;
  mutable m_cctx : int array;
      (** the sender's calling-context id ({!Instrument.ctx}); 0 in bare
          runs *)
  mutable m_eager : bool array;
  mutable m_consumed : bool array;
  mutable m_sreq : int array;  (** handle of the sender's request *)
  mutable m_free : int array;
  mutable m_nfree : int;
}

and coll = {
  coll_seq : int;
  coll_kind : Ast.mpi_call;
  mutable n_arrived : int;
  mutable finished : bool;
  mutable last_arrival_rank : int;
  mutable waiters : int;
      (** newest rank blocked on the instance, [-1] = none; the
          scheduler chains the others; owned by the scheduler *)
  times : coll_times;
}

and coll_times = {
  mutable max_arrival : float;
      (** latest arrival seen so far (running accumulator) *)
  mutable start_time : float;
  mutable finish_time : float;
}

(** A communicator priced by {!Network.default}. *)
val create : nprocs:int -> t

(** Install the scheduler callback fired with a request's slot whenever
    it completes. *)
val set_on_complete : t -> (int -> unit) -> unit

(** Post a send at [clock.(src)] ([clock] holds every rank's clock);
    returns the request's slot, already completed for eager messages.
    Raises [Invalid_argument] on an out-of-range destination. *)
val send :
  t ->
  src:int ->
  dst:int ->
  tag:int ->
  bytes:int ->
  clock:float array ->
  loc:Loc.t ->
  cctx:int ->
  int

(** Post a receive at [clock.(rank)] ([src]/[tag] may be
    {!any_src}/{!any_tag}); returns the request's slot, already completed
    when a matching unexpected message was waiting. *)
val post_recv :
  t -> rank:int -> src:int -> tag:int -> clock:float array -> loc:Loc.t -> int

(** The posting rank lets go of a request: its slot is recycled now if
    it completed, else when it completes.  Release each request once,
    after the last read of its columns. *)
val release : t -> int -> unit

(** The slot of the message a receive matched, or {!nil}. *)
val matched : t -> int -> int

(** Register [rank]'s arrival at its [seq]-th collective, at
    [clock.(rank)]; the last arrival finalizes the instance (start/finish
    set, [finished] true) and drops it from the in-flight table.  Raises
    [Invalid_argument] on mismatched collective kinds. *)
val coll_arrive :
  t ->
  seq:int ->
  rank:int ->
  clock:float array ->
  kind:Ast.mpi_call ->
  bytes:int ->
  coll

(** Human-readable dump of pending receives/messages, for deadlock
    reports. *)
val pending_summary : t -> string
