(** Log–log model fitting: ordinary least squares on
    [log T = a + b log P]; the slope is a vertex's changing rate as the
    job scale grows. *)

type fit = { intercept : float; slope : float; r2 : float; n : int }

(** Points with non-positive values are dropped; fewer than two valid
    points yield a zero fit with [n < 2]. *)
val fit : (int * float) list -> fit

(** Same model with a real-valued scale axis — elastic sessions fit
    against their effective (time-weighted mean) process count.
    [fit] is [fit_scaled] over [float_of_int] scales, bit for bit. *)
val fit_scaled : (float * float) list -> fit

(** -1: time halves when the process count doubles. *)
val ideal_strong_scaling_slope : float
