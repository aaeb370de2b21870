(** Calling-context tree for the call-path profiling baseline: per-rank
    nodes keyed by (call path, location) with sampled metrics, plus a
    cross-rank merge for top-down reports. *)

open Scalana_mlang
open Scalana_runtime

type node = {
  cct_loc : Loc.t;
  cct_callpath : Loc.t list;
  mutable time : float;
  mutable samples : int;
  mutable pmu : Pmu.t;
  mutable wait : float;
  mutable is_mpi : bool;
}

type t = { per_rank : (string, node) Hashtbl.t array }

val create : nprocs:int -> t
val find_or_add : t -> rank:int -> callpath:Loc.t list -> loc:Loc.t -> node

(** Kept: Table I's storage model ([storage_bytes] = nodes ×
    [bytes_per_node]), which its test pins. *)
val n_nodes : t -> int

(** Kept: Table I's per-node cost, which the storage test pins. *)
val bytes_per_node : int
val storage_bytes : t -> int

type merged = {
  m_loc : Loc.t;
  m_callpath : Loc.t list;
  m_time : float;
  m_wait : float;
  m_is_mpi : bool;
  m_ranks : int;  (** ranks holding this context *)
  m_max_time : float;
  m_min_time : float;
}

val merge : t -> merged list
