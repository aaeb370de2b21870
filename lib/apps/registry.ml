(* Registry of all evaluated programs (the paper's Table II roster). *)

open Scalana_mlang
open Scalana_runtime

type entry = {
  name : string;
  description : string;
  make : ?optimized:bool -> unit -> Ast.program;
  cost : Costmodel.t;
  square_scales : bool;  (* BT/SP-style sqrt(np) process grids *)
  has_optimized : bool;
  elastic_plan : Elastic.plan option;  (* membership plan, elastic apps *)
}

let entry ?(cost = Costmodel.default) ?(square_scales = false)
    ?(has_optimized = false) ?elastic_plan name description make =
  { name; description; make; cost; square_scales; has_optimized; elastic_plan }

let all =
  [
    entry "bt" "NPB BT: block-tridiagonal ADI on a square process grid"
      Npb_bt.make ~square_scales:true;
    entry "cg" "NPB CG: conjugate gradient with hypercube exchange"
      Npb_cg.make;
    entry "ep" "NPB EP: embarrassingly parallel" Npb_ep.make;
    entry "ft" "NPB FT: 3-D FFT with all-to-all transpose" Npb_ft.make;
    entry "mg" "NPB MG: multigrid V-cycle with per-level halos" Npb_mg.make;
    entry "sp" "NPB SP: scalar-pentadiagonal ADI on a square process grid"
      Npb_sp.make ~square_scales:true;
    entry "lu" "NPB LU: SSOR with wavefront pipeline" Npb_lu.make;
    entry "is" "NPB IS: integer bucket sort" Npb_is.make;
    entry "sst" "SST-like parallel discrete-event simulator" Sst_like.make
      ~has_optimized:true;
    entry "nekbone" "Nekbone-like spectral-element CG solver"
      Nekbone_like.make
      ~cost:(Costmodel.heterogeneous ())
      ~has_optimized:true;
    entry "zeusmp" "Zeus-MP-like 3-D MHD code" Zeusmp_like.make
      ~has_optimized:true;
  ]

let names = List.map (fun e -> e.name) all

(* Extreme-scale entries: weak-scaled workloads whose per-rank event
   count is nearly constant, meant for np=4096..16384 engine throughput
   runs (bench scale sweep, CI perf-smoke).  Kept out of [all] so the
   Table II roster, the golden reports and the lint calibration stay the
   paper's eleven programs. *)
let extreme =
  [
    entry "cg-weak"
      "NPB CG, weak-scaled: constant per-rank partition, np=4096+ smoke"
      Npb_cg.make_weak;
  ]

(* Elastic entries: iteration-sliced programs paired with membership
   plans (ranks leave / join mid-run).  Kept out of [all] for the same
   reason as [extreme]: the Table II roster and the original golden
   reports stay the paper's eleven programs. *)
let elastic =
  [
    entry "cg-shrink"
      "CG solver over a ring; rank 1 fails at the iteration-6 boundary"
      Elastic_apps.make_cg_shrink
      ~elastic_plan:Elastic_apps.cg_shrink_plan;
    entry "halo-grow"
      "halo stencil; two ranks join at the iteration-6 rebalance point"
      Elastic_apps.make_halo_grow
      ~elastic_plan:Elastic_apps.halo_grow_plan;
  ]

let find name =
  match
    List.find_opt
      (fun e -> String.equal e.name name)
      (all @ extreme @ elastic)
  with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "unknown program %S (known: %s)" name
           (String.concat ", " names))

(* Job scales for an entry within [min_np, max_np]: powers of two, or
   powers of four for square-grid programs. *)
let scales e ~min_np ~max_np =
  let rec go acc n =
    if n > max_np then List.rev acc
    else go (n :: acc) (if e.square_scales then n * 4 else n * 2)
  in
  go [] (max min_np (if e.square_scales then 4 else 2))
