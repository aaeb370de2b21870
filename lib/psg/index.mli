(** Attribution index from dynamic (call path, location) pairs to
    contracted-PSG vertices, with fallbacks for recursive re-entries and
    unresolved indirect calls. *)

open Scalana_mlang

type t

val build : full:Psg.t -> contraction:Contract.result -> t

(** Index vertices added to the contracted graph by indirect-call
    refinement (subtree rooted at the spliced Root vertex). *)
val index_contracted_subtree : t -> int -> unit

(** [find t ~callpath ~loc] — contracted vertex owning [loc] under
    [callpath]; falls back frame-by-frame for recursion/indirect calls. *)
val find : t -> callpath:Loc.t list -> loc:Loc.t -> int option

(** Exact lookup, no fallback. *)
val exact : t -> callpath:Loc.t list -> loc:Loc.t -> int option

val size : t -> int

(** Per-run memo of {!find}: each distinct (call path, location) is
    resolved once, later lookups are one structural hash.  Answers,
    [None] included, equal {!find}'s on the index as it stood when the
    context was first seen — so create one per run, after the last
    {!index_contracted_subtree}, and drop it when the run ends. *)
module Resolver : sig
  type index := t
  type t

  val create : index -> t

  (** Same answer as [Index.find] on the resolver's index. *)
  val find : t -> callpath:Loc.t list -> loc:Loc.t -> int option
end
