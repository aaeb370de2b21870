(** Strategies for merging a vertex's per-rank metric into one value
    (Section IV-A): single rank, mean, median, variance-aware, and
    clustering-based merging. *)

type strategy =
  | Single of int
  | Mean
  | Median
  | Variance_weighted  (** mean + stddev: surfaces imbalance *)
  | Kmeans of int  (** centroid of the heaviest populated cluster *)

val strategy_name : strategy -> string

(** Is this value quarantined (NaN or negative — a poisoned metric)? *)
val quarantined : float -> bool

(** {2 The kernel}

    Every function reads one row in place (in the PPG, one vertex's
    cells across ranks, indexed by rank).  Cells are visited in rank
    order and quarantined cells are skipped, so over a clean row each
    statistic is the plain textbook formula evaluated left to right. *)

(** Quarantined cells in the row (what {!sanitize} drops). *)
val quarantined_in : float array -> int

(** Surviving cells gathered in rank order, with the count dropped;
    always a fresh array.
    Kept: a kernel primitive, pinned against a list reference by property
    tests. *)
val sanitize : float array -> float array * int

(** Sum of the surviving cells. *)
val sum_clean : float array -> float

(** Largest surviving cell, floored at 0. *)
val max_clean : float array -> float

(** Kept: a kernel primitive, pinned bit for bit against a list reference. *)
val mean : float array -> float
val median : float array -> float

(** Kept: a kernel primitive, pinned bit for bit against a list reference. *)
val variance : float array -> float

(** 1-D Lloyd's k-means over the surviving cells with deterministic
    quantile seeding; returns (centroid, size) pairs.
    Kept: the clustering behind the kmeans strategy, which its tests pin
    directly. *)
val kmeans : k:int -> float array -> (float * int) array

val apply : strategy -> float array -> float
