(** Static scaling-loss linter over MiniMPI programs.

    Syntactic/symbolic heuristics for the communication patterns that
    lose scalability as the process count grows: Nprocs-dependent
    message volume, root-centralized exchanges, point-to-point loops
    emulating collectives, loop-invariant communication, and
    nonblocking-request misuse.  Findings are warnings, not proofs — the
    detection report cross-references them against the vertices the
    dynamic analysis actually blames. *)

open Scalana_mlang

type rule =
  | Nprocs_volume
      (** message volume grows with the process count (probed at
          4/16/64 ranks — shrinking partitions like [na / np] and peer
          renumbering are not flagged) *)
  | Root_centralized
      (** Reduce+Bcast from the same root, or a [rank == c] branch
          looping point-to-point over peers — hand-rolled collectives
          that serialize on the root *)
  | P2p_collective
      (** loop with an Nprocs-dependent trip count performing
          point-to-point communication (e.g. the NPB-CG transpose
          exchange) *)
  | Loop_invariant_comm
      (** data-distribution call with fully static arguments inside a
          loop: the identical transfer repeats every iteration *)
  | Unwaited_request
      (** [Isend]/[Irecv] whose request never reaches a wait, per the
          def-use chains *)
  | Duplicate_waitall  (** the same request listed twice in one waitall *)
  | Send_recv_mismatch
      (** interprocedural channel audit (concrete walk at 4 and 16
          ranks): messages sent into a rank and receives it posts
          disagree — unmatched traffic or a hanging receive *)
  | Rank_tag_mismatch
      (** per-destination totals balance, but a concrete send channel
          matches no receive's source/tag at its destination —
          rank-dependent tag arithmetic diverged between the sides *)
  | Collective_divergence
      (** a collective site executes a different number of times on
          different ranks (rank-divergent branch): deadlock *)

val rule_name : rule -> string
(** Kebab-case identifier, e.g. ["p2p-collective"]. *)

val all_rules : rule list

type finding = { rule : rule; loc : Loc.t; func : string; msg : string }

val run : Ast.program -> finding list
(** All findings, sorted by source location. *)

val finding_to_string : finding -> string

val pp_report : finding list Fmt.t
(** One line per finding plus a total, or ["no findings"]. *)
