(** Abnormal vertex detection (Section IV-A): at one job scale, flag
    vertices whose time on some ranks deviates from the median by more
    than [abnorm_thd] (paper default 1.3); vertices executed by a
    minority of ranks (median zero) are the load-imbalance shape. *)

type finding = {
  vertex : int;
  ranks : int list;  (** the deviating ranks *)
  max_time : float;
  median_time : float;
  ratio : float;  (** max / median; infinite when the median is zero *)
}

(** Vertices whose time stays below 100 µs on every rank are never
    abnormal: a constant, not a setting. *)
type config = { abnorm_thd : float }

val default_config : config

(** Raises [Invalid_argument], naming [what], unless [thd] is a usable
    [abnorm_thd]: finite and at least 1.  {!detect} checks its config
    with it. *)
val check_thd : what:string -> float -> unit

val detect : ?config:config -> Scalana_ppg.Ppg.t -> finding list
val pp_finding : Scalana_psg.Psg.t -> finding Fmt.t
