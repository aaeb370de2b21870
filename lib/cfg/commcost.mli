(** Static communication-cost analysis.

    Derives, for every communication statement of a MiniMPI program, its
    symbolic message count, per-message byte volume, destination-rank
    expression, and a scaling class — by combining a symbolic abstract
    interpreter (interprocedural invocation counts over {!Callgraph}, Top
    on recursion; per-statement execution counts from one walk of each
    function's AST, with its [let] bindings and loop trip counts in
    scope) with a concrete per-rank walker that probes a few scales to
    resolve rank arithmetic the polynomial domain cannot express.  The
    walker runs the simulator's compiled form of the program
    ({!Scalana_runtime.Ir}), compiled once per walked scale.

    The scaling class measures *network pressure*: per-rank messages
    weighted by ring distance (dilation) for point-to-point traffic and
    by tree/dissemination depth for collectives.  A hypercube transpose
    is O(p) under this metric even though each rank sends only log2(p)
    messages — the load it places on the interconnect is what stops
    scaling. *)

open Scalana_mlang

(** {1 Per-statement facts} *)

type fact = {
  cc_func : string;  (** enclosing function *)
  cc_loc : Loc.t;
  cc_op : string;  (** MPI operation name *)
  cc_msgs : Symbolic.t;  (** symbolic executions per program run *)
  cc_bytes : Symbolic.t;  (** symbolic per-message payload *)
  cc_dest : string option;  (** destination-rank expression, rendered *)
  cc_cls : Symbolic.cls;  (** network-pressure scaling class *)
}

(** Plain-data prediction attached to PSG vertices (marshal-safe). *)
type pred = {
  pred_label : string;  (** e.g. ["O(p)"] *)
  pred_a : float;  (** power of p *)
  pred_b : float;  (** power of log p *)
  pred_known : bool;  (** false when the class is unknown *)
  pred_msgs : string;
  pred_bytes : string;
  pred_dest : string option;
  pred_pattern : string;  (** enclosing function's comm pattern; may be "" *)
}

type t

val analyze : Ast.program -> t
(** Runs the full analysis.  The concrete walker measures network
    pressure at 16, 64 and 256 ranks; the communication matrices come
    from the same walk at 16 ranks.  Pressure is a per-rank mean, so
    scales beyond 16 ranks are probed on an evenly-strided subset of 16
    ranks — rank-symmetric idioms give the same mean, and the cost of a
    probe does not grow with its scale; the {!audit} and the matrices
    always walk every rank.  Measured against the modelled base
    compilation (Table III, [bench/main.exe --only table3]), this
    analysis costs 4.9–213% of it on the eleven Table II programs.  lu
    is the outlier: each of its ranks walks 1,920 wavefront iterations,
    each with a receive and a send.  Next is mg at 50.5%. *)

val facts : t -> fact list
(** In program order.
    Kept: the analysis result [render] prints; the symbolic tests assert it
    fact by fact. *)

val exact : t -> bool
(** False when the concrete walker hit unanalyzable constructs
    (recursion, unresolved calls, fuel exhaustion); classes degrade to
    [Unknown] in that case.
    Kept: whether the concrete walks were exact, read with [facts] by the
    symbolic tests. *)

val patterns : t -> (string * string) list
(** Per-function communication pattern: ["ring"], ["nearest-neighbor"],
    ["transpose"], ["root-centralized"], ["all-to-all"], ["collective"],
    ["irregular"] or ["none"].  Functions without communication are
    omitted.
    Kept: the per-function pattern labels [render] prints, read by the pattern
    tests. *)

val find_fact : t -> func:string -> loc:Loc.t -> fact option

val count_at : t -> func:string -> loc:Loc.t -> Symbolic.t option
(** Symbolic executions per program run of any statement: its function's
    invocation count times the trip counts of the loops around it.  A
    loop statement counts its iterations, so its own trip is a factor
    too.  The count is [Top] when a trip count depends on [rank] or
    leaves the domain.  [None] unless [loc] holds a statement of [func]
    and [func] is reachable from [main].  The PSG's [#Pred] column
    classifies non-MPI vertices by it; each fact's [cc_msgs] is the same
    count. *)

val pred_of_fact : t -> fact -> pred
val count_pred : Symbolic.t -> pred

val render : Format.formatter -> t -> unit
(** The [scalana-static --predict] section: invocation table,
    per-statement complexity table, patterns and matrices. *)

(** {1 Dynamic crosscheck support} *)

val model_series :
  Ast.program ->
  scales:int list ->
  bool * ((string * Loc.t) * (int * float) list) list
(** Per-statement mean per-rank model time (Hockney latency/bandwidth
    for point-to-point, tree/dissemination shapes for collectives: the
    simulator's {!Scalana_runtime.Network.default}) at the given
    scales.  Fitting these points with {!Loglog} yields the slope the
    static model predicts for the measured one.  The boolean is the
    exactness of the walks. *)

val classify_pattern :
  np:int -> ((int * int) * int) list -> string list -> string
(** [classify_pattern ~np pairs collectives] names the pattern of a
    point-to-point pair multiset (plus collective op names) — exposed
    for tests.
    Kept: the pattern classifier, tested on synthetic ring, fan-in, all-to-all
    and hypercube matrices. *)

(** {1 Channel audit for the interprocedural lints} *)

type audit = {
  au_nprocs : int;
  au_exact : bool;  (** rules must not fire when false *)
  au_sends : ((int * int * int) * (int * Loc.t * string)) list;
      (** (src, dst, tag) -> count, site, function *)
  au_recvs : ((int * int option * int option) * (int * Loc.t * string)) list;
      (** (dst, src?, tag?) -> count; [None] is a wildcard *)
  au_colls : ((string * Loc.t) * (string * int array)) list;
      (** (func, loc) -> op name, per-rank execution counts *)
}

val audit : Ast.program -> nprocs:int -> audit
(** One concrete walk of every rank at [nprocs], recording every posted
    send, receive and collective execution.  The channel lists come out
    sorted by key. *)
