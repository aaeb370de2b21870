(** Elastic execution: ULFM-style shrink and grow of the simulated job.

    An elastic session is a sequence of membership {i epochs} — one
    simulator run per epoch at its own communicator size — stitched
    together by a seeded recovery protocol at every membership boundary
    (failure detection + agreement + state repartitioning).  Same
    (plan, nprocs) ⇒ same membership timeline ⇒ byte-identical reports.
    Ranks keep global identities: an epoch's local rank [l] is global
    rank [members.(l)]. *)

type change = Leave of { rank : int } | Join of { count : int }

type event = { at_iter : int; change : change }

type plan = {
  total_iters : int;
  state_bytes : int;  (** per-rank partition migrated on a change *)
  events : event list;
}

(** Raises [Invalid_argument] when [total_iters < 1]. *)
val plan : ?state_bytes:int -> total_iters:int -> event list -> plan

(** ["iter_lo"]: the program parameter naming an epoch's first
    iteration. *)
val lo_param : string

(** ["iter_hi"]: one past an epoch's last iteration. *)
val hi_param : string

(** Failure-detector base timeout, 1 ms: a survivor detects a failure
    after between one and two timeouts (seeded jitter).
    Kept: the recovery test bounds detection windows by it. *)
val detect_timeout : float

(** Global rank [rank] fails at the boundary entering iteration [iter]. *)
val shrink_at : iter:int -> rank:int -> event

(** [ranks] fresh ranks join at the boundary entering iteration [iter]. *)
val grow_at : iter:int -> ranks:int -> event

type epoch = {
  e_index : int;
  e_lo : int;  (** iteration range [[e_lo, e_hi)] this epoch covers *)
  e_hi : int;
  e_members : int array;  (** local rank -> global rank id, ascending *)
  e_left : int list;  (** global ids that left at the boundary entering *)
  e_joined : int list;  (** global ids that joined at that boundary *)
}

(** The session's epochs at job scale [nprocs], and the total number of
    distinct global ranks (joiners get ids [nprocs], [nprocs+1], …).
    Events at iteration 0 or past the end are ignored; a leave of an
    absent rank is ignored, so one plan is valid at every scale. *)
val membership : plan -> nprocs:int -> epoch list * int

type recovery = {
  r_iter : int;  (** the boundary iteration *)
  r_left : int list;
  r_joined : int list;
  r_detect : float;  (** window until the last survivor detected *)
  r_agree : float;  (** agreement on the new communicator *)
  r_repartition : float;  (** slowest rank's migration + re-touch *)
  r_stalls : (int * float) list;
      (** surviving global rank -> seconds stalled in recovery *)
  r_end : float;  (** absolute time the next epoch starts at *)
}

(** Run the recovery protocol entering the epoch whose members are
    [members]: [finish] gives the previous epoch's per-global-rank
    absolute finish times, [left]/[joined] the membership change.  For a
    shrink every survivor first waits out its detection delay; a grow is
    a planned rebalance with no detection window.  Then agreement
    (a reduce + broadcast tree over the new communicator) and
    repartitioning ({!Network.default} transfer of the moved share plus
    {!Costmodel.repartition_cost} on the slowest member). *)
val recover :
  plan ->
  cost:Costmodel.t ->
  nprocs:int ->
  iter:int ->
  left:int list ->
  joined:int list ->
  members:int array ->
  finish:(int * float) list ->
  recovery

type epoch_info = {
  ei_nprocs : int;
  ei_lo : int;
  ei_hi : int;
  ei_members : int array;
  ei_t0 : float;  (** absolute simulated span of the epoch *)
  ei_t1 : float;
}

(** Summary of one elastic session, carried on the profiling run record
    into detection and reporting.  Marshal-safe (no closures). *)
type info = {
  nominal : int;  (** the requested job scale *)
  n_ranks : int;  (** distinct global ranks over the whole session *)
  effective : float;  (** time-weighted mean membership *)
  elapsed : float;
  epoch_infos : epoch_info list;
  recoveries : recovery list;
}

(** Time-weighted mean membership — the effective process count the
    log-log fits should see instead of the nominal scale. *)
val effective_nprocs : epoch_info list -> float

(** Total protocol time (detection + agreement + repartitioning) summed
    over the session's recoveries. *)
val recovery_seconds : info -> float

(** ["0-3,5,7-8"] — a sorted rank array compressed into ranges;
    ["none"] when empty. *)
val compress_ranks : int array -> string
