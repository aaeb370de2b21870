(** Attribution index from dynamic (call path, location) pairs to
    contracted-PSG vertices, with fallbacks for recursive re-entries and
    unresolved indirect calls. *)

open Scalana_mlang

type t

(** [key callpath loc]: the string a (call path, location) pair is
    indexed under — each call-site location followed by [>], then
    [loc].  {!Datadep} keys its vertex table the same way. *)
val key : Loc.t list -> Loc.t -> string

val build : full:Psg.t -> contraction:Contract.result -> t

(** Index vertices added to the contracted graph by indirect-call
    refinement (subtree rooted at the spliced Root vertex). *)
val index_contracted_subtree : t -> int -> unit

(** [find t ~callpath ~loc] — contracted vertex owning [loc] under
    [callpath]; falls back frame-by-frame for recursion/indirect calls.
    Kept: the reference lookup [Resolver] memoizes; the tests compare the
    two. *)
val find : t -> callpath:Loc.t list -> loc:Loc.t -> int option

(** Exact lookup, no fallback.
    Kept: the exact-key lookup [find] starts from, read by the index tests. *)
val exact : t -> callpath:Loc.t list -> loc:Loc.t -> int option

(** Kept: the index size, read by the index tests. *)
val size : t -> int

(** Per-run memo of {!find}, keyed by calling-context id: each distinct
    (context, location) is resolved once, later lookups are an array
    read and a short list scan.  [cctx] must name [callpath] the way the
    run's contexts do (equal ids exactly when the call paths are equal),
    and [callpath] is only read on a miss.  Answers, [None] included,
    equal {!find}'s on the index as it stood when the context was first
    seen — so create one per run, after the last
    {!index_contracted_subtree}, and drop it when the run ends. *)
module Resolver : sig
  type index := t
  type t

  val create : index -> t

  (** Same answer as [Index.find ~callpath ~loc] on the resolver's
      index. *)
  val find : t -> cctx:int -> callpath:Loc.t list -> loc:Loc.t -> int option
end
