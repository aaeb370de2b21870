(** Communication-dependence records with graph-guided compression
    (Section III-B2): one p2p edge per distinct (receiver rank/vertex,
    sender rank/vertex, tag, bytes) tuple, stored as columns; collective
    participation folds into a per-vertex histogram of the last-arriving
    rank.

    A record grows while its run records and is then frozen: {!freeze}
    writes each edge field as one exact array, in reading order, and
    from then on edges are read by index [0 .. n_p2p - 1] through the
    accessors below.  Reading order is the order the hash table these
    columns replaced listed its edges in, so [Ppg.critical_edge] breaks
    ties, and backtracking walks, as it always has. *)

type coll_rec = {
  coll_vertex : int;
  mutable instances : int;
  last_arrivals : (int, int) Hashtbl.t;  (** rank -> #times last *)
}

type t

val create : unit -> t

(** One p2p dependence instance: a new key adds an edge, a repeat bumps
    its hits, makes [has_wait] sticky and keeps the largest wait.  A
    repeat allocates nothing; a new edge allocates only when its block
    fills or the index doubles.  Raises [Invalid_argument] once
    frozen. *)
val record_p2p :
  t ->
  recv_rank:int ->
  recv_vertex:int ->
  send_rank:int ->
  send_vertex:int ->
  tag:int ->
  bytes:int ->
  waited:bool ->
  wait_seconds:float ->
  unit

val record_coll : t -> vertex:int -> last_arrival_rank:int -> unit

(** End recording: lay the p2p edges out as exact columns in reading
    order and drop the growth blocks and their index.  Idempotent; the
    profiler calls it when its run ends. *)
val freeze : t -> unit

val n_p2p : t -> int

(** {1 Edge [e] of a frozen record} *)

val recv_rank : t -> int -> int
val recv_vertex : t -> int -> int
val send_rank : t -> int -> int
val send_vertex : t -> int -> int

(** Kept: part of the edge key, which the edge-order pin digests field
    by field. *)
val tag : t -> int -> int

(** Kept: part of the edge key, which the edge-order pin digests field
    by field. *)
val bytes : t -> int -> int

(** Instances folded into the edge.
    Kept: the compression and edge-order tests read it; the PPG oracle
    compares it. *)
val hits : t -> int -> int

(** Sticky: some instance waited. *)
val has_wait : t -> int -> bool

val max_wait : t -> int -> float

(** Instances recorded before compression (ablation). *)
val raw_records : t -> int

val coll_records : t -> coll_rec list

(** The rank that most often arrived last (-1 if none recorded). *)
val dominant_late_rank : coll_rec -> int

val n_coll : t -> int

(** Merge [src] into [into] with every rank renumbered through [map] —
    used to fold an elastic epoch's records (local ranks) into the
    session-wide record (global rank ids).  [src] is frozen first; its
    edges are drained in key order, so the destination's layout depends
    on content alone. *)
val merge_renumbered : into:t -> map:(int -> int) -> t -> unit

val storage_bytes : t -> int
val uncompressed_bytes : t -> int
