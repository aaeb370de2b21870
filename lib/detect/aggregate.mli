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

    Every function reads one row slice [off, off + len) of a column in
    place (in the PPG, one vertex's cells across ranks); a whole array is
    [~off:0 ~len:(Array.length a)].  Cells are visited in rank order and
    quarantined cells are skipped, so over a clean row each statistic is
    the plain textbook formula evaluated left to right. *)

(** Quarantined cells in the slice (what {!sanitize} drops). *)
val quarantined_in : float array -> off:int -> len:int -> int

(** Surviving cells gathered in rank order, with the count dropped;
    always a fresh array. *)
val sanitize : float array -> off:int -> len:int -> float array * int

(** Sum of the surviving cells. *)
val sum_clean : float array -> off:int -> len:int -> float

(** Largest surviving cell, floored at 0. *)
val max_clean : float array -> off:int -> len:int -> float

val mean : float array -> off:int -> len:int -> float
val median : float array -> off:int -> len:int -> float
val variance : float array -> off:int -> len:int -> float

(** 1-D Lloyd's k-means over the surviving cells with deterministic
    quantile seeding; returns (centroid, size) pairs. *)
val kmeans : k:int -> float array -> off:int -> len:int -> (float * int) array

val apply : strategy -> float array -> off:int -> len:int -> float
