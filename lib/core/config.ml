(* End-user configuration of the ScalAna pipeline — the user-facing knobs
   of Section V (MaxLoopDepth, AbnormThd) plus sampling/instrumentation
   settings, with the paper's evaluation defaults. *)

type t = {
  max_loop_depth : int;  (* PSG contraction bound; paper: 10 *)
  abnorm_thd : float;  (* abnormal-vertex threshold; paper: 1.3 *)
  sampling_freq : float;  (* Hz; paper: 200, same as HPCToolkit *)
  record_prob : float;  (* random-sampling instrumentation threshold *)
  follow_def_use : bool;
      (* backtrack along explicit def-use edges where available instead
         of sibling order; off = paper-faithful Algorithm 1 *)
  seed : int;
  analysis_domains : int;  (* parallelism of the analysis fan-outs *)
  max_run_retries : int;  (* extra profiling attempts for fault-killed runs *)
  static_crosscheck : bool;
      (* cross-check non-scalable slopes against the symbolic
         communication model; off = reports byte-identical *)
}

let default =
  {
    max_loop_depth = 10;
    abnorm_thd = 1.3;
    sampling_freq = 200.0;
    record_prob = 0.5;
    follow_def_use = false;
    seed = 42;
    analysis_domains = Pool.default_size ();
    max_run_retries = 2;
    static_crosscheck = false;
  }

let profiler_config t =
  {
    Scalana_profile.Profiler.freq = t.sampling_freq;
    record_prob = t.record_prob;
    seed = t.seed;
  }

let ns_config (_ : t) = Scalana_detect.Nonscalable.default_config
let ab_config t = { Scalana_detect.Abnormal.abnorm_thd = t.abnorm_thd }

let bt_config t =
  {
    Scalana_detect.Backtrack.default_config with
    follow_def_use = t.follow_def_use;
  }
