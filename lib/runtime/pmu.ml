(* Hardware performance-counter model (the PAPI substrate).

   Counters are the ones the paper's case studies read: total retired
   instructions (TOT_INS), load/store instructions (TOT_LST_INS), total
   cycles (TOT_CYC) and cache misses.  Counts derive deterministically
   from workload descriptors via {!Costmodel}. *)

type t = {
  tot_ins : float;
  tot_lst_ins : float;
  tot_cyc : float;
  cache_miss : float;
  fp_ins : float;
}

let zero =
  { tot_ins = 0.0; tot_lst_ins = 0.0; tot_cyc = 0.0; cache_miss = 0.0; fp_ins = 0.0 }

let add a b =
  {
    tot_ins = a.tot_ins +. b.tot_ins;
    tot_lst_ins = a.tot_lst_ins +. b.tot_lst_ins;
    tot_cyc = a.tot_cyc +. b.tot_cyc;
    cache_miss = a.cache_miss +. b.cache_miss;
    fp_ins = a.fp_ins +. b.fp_ins;
  }

(* [a + k·b] as one record: per field the [k *. b] product, then the
   sum — the float operations of adding a scaled copy of [b], without
   the copy. *)
let add_scaled a k b =
  {
    tot_ins = a.tot_ins +. (k *. b.tot_ins);
    tot_lst_ins = a.tot_lst_ins +. (k *. b.tot_lst_ins);
    tot_cyc = a.tot_cyc +. (k *. b.tot_cyc);
    cache_miss = a.cache_miss +. (k *. b.cache_miss);
    fp_ins = a.fp_ins +. (k *. b.fp_ins);
  }

type metric = Tot_ins | Tot_lst_ins | Tot_cyc | Cache_miss | Fp_ins

let get m t =
  match m with
  | Tot_ins -> t.tot_ins
  | Tot_lst_ins -> t.tot_lst_ins
  | Tot_cyc -> t.tot_cyc
  | Cache_miss -> t.cache_miss
  | Fp_ins -> t.fp_ins
