(** Symbolic scaling polynomials: the abstract domain of the static
    communication-complexity analysis.

    A value is a sum of monomials [c * p^a * log2(p)^b] in the process
    count [p] (app size parameters fold into the coefficients), or
    [Top] when the program computes something the domain cannot follow
    (rank arithmetic, unbound variables, non-monomial division).  All
    derived counts are upper bounds: joins take term-wise maxima and
    widening truncates to the leading monomials, preserving the
    dominant term and hence the complexity class. *)

open Scalana_mlang

type mono = { coeff : float; p_exp : float; log_exp : float }
type t = Poly of mono list | Top  (** [Poly []] is zero *)

val top : t
val zero : t
val one : t

(** Kept: part of the abstract domain's algebra, which its tests exercise
    directly. *)
val const : float -> t
val p : t
(** The process count.
    Kept: part of the abstract domain's algebra, which its tests exercise
    directly. *)

(** Kept: part of the abstract domain's algebra, which its tests exercise
    directly. *)
val log_p : t

(** Kept: part of the abstract domain's algebra, which its tests exercise
    directly. *)
val mono : coeff:float -> p_exp:float -> log_exp:float -> t

(** Kept: part of the abstract domain's algebra, which its tests exercise
    directly. *)
val is_top : t -> bool
val is_zero : t -> bool

val add : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Exact only when the divisor is a single monomial; widens to [Top]
    otherwise.
    Kept: part of the abstract domain's algebra, which its tests exercise
    directly. *)

val join : t -> t -> t
(** Least upper bound: term-wise maxima (used for Min/Max and for
    merging branch arms). *)

val equal : t -> t -> bool

(** {1 Complexity classes} *)

type cls = Cls of { a : float; b : float } | Unknown
(** The class [O(p^a log^b p)]; [Unknown] abstracts [Top]. *)

val cls_of : t -> cls
val cls_label : cls -> string
(** ["O(1)"], ["O(log p)"], ["O(sqrt(p))"], ["O(p)"], ["O(p log p)"],
    ["O(p^2)"], ... — ["O(?)"] for [Unknown]. *)

val cls_compare : cls -> cls -> int
(** Orders by asymptotic growth; [Unknown] sorts above every bound.
    Kept: the order on complexity classes, which the class tests pin. *)

(** Kept: equality on complexity classes, which the class tests use. *)
val cls_equal : cls -> cls -> bool

val fit_exponents : (int * float) list -> cls option
(** Recover [O(p^a log^b p)] from positive samples at probe scales:
    least squares for [a] with [b] chosen from {0,1,2} by residual,
    exponents snapped via {!snap}.  [None] with fewer than two positive
    samples. *)

(** {1 Symbolic evaluation} *)

type env = { params : (string * int) list; vars : (string * t) list }

val env : params:(string * int) list -> vars:(string * t) list -> env

val of_expr : env -> Expr.t -> t
(** Abstract evaluation of a MiniMPI expression.  [Rank], unbound
    variables, and operators outside the domain (mod, comparisons,
    xor) evaluate to [Top]; [Min]/[Max] join; [log2]/[isqrt] of a
    monomial stay symbolic. *)

val to_string : t -> string
