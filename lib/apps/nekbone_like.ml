(* Nekbone analogue (Section VI-D3).

   Conjugate-gradient iterations of a spectral-element Helmholtz solve:
   the matrix-free operator is a dgemm loop over local elements
   (blas.f:8941 analogue), followed by the gather-scatter neighbour
   exchange whose MPI_Waitall (comm.h:243 analogue) absorbs the
   imbalance, and dot-product allreduces.

   The planted defect follows the paper: per-core memory speed differs
   (run this program with a heterogeneous {!Scalana_runtime.Costmodel}),
   so ranks retire the same load/store count in different times —
   TOT_LST_INS equal, TOT_CYC spread (Fig. 16).  [optimized] is the
   paper's fix: an efficient BLAS that cuts loads ~90%, which both speeds
   the loop up and hides the core-speed variance. *)

open Scalana_mlang
open Expr.Infix

let make ?(optimized = false) () =
  let b = Builder.create ~file:"nekbone.mmp" ~name:"nekbone" () in
  Builder.param b "nelt" 16_384;  (* spectral elements, total *)
  Builder.param b "ework" 120_000;  (* flops per element solve *)
  Builder.param b "niter" 50;
  Builder.param b "gsbytes" 80_000;
  let mem_per_elt =
    if optimized then p "ework" / i 8 (* blocked BLAS: ~90% fewer loads *)
    else p "ework" + (p "ework" / i 4)
  in
  let locality = if optimized then 0.97 else 0.85 in
  Builder.func b "ax" (fun () ->
      [
        Builder.loop b ~label:"dgemm_loop" ~var:"e"
          ~count:(max_ (i 1) (p "nelt" / np))
          (fun () ->
            [
              Builder.comp b ~label:"dgemm" ~locality
                ~flops:(i 2 * p "ework")
                ~mem:mem_per_elt ();
            ]);
        Builder.comp b ~label:"local_grad" ~locality:0.975
          ~flops:(p "nelt" / np * p "ework" / i 2)
          ~mem:(p "nelt" / np * p "ework" / i 4)
          ();
      ]);
  Builder.func b "gs_op" (fun () ->
      (* gather-scatter with the ring neighbours; comm_wait@comm.h:243 *)
      Common.nonblocking_halo b ~tag:5 ~bytes:(p "gsbytes") ()
      @ [
          Builder.comp b ~label:"gs_local" ~locality:0.975
            ~flops:(p "gsbytes" / i 4)
            ~mem:(p "gsbytes" / i 4)
            ();
        ]);
  Builder.func b "main" (fun () ->
      Common.setup_phase b ~name:"setup" ~work:(p "nelt" * i 100 / np) ()
      @ [
        Builder.comp b ~label:"setup_mesh" ~locality:0.97
          ~flops:(p "nelt" / np * i 40_000)
          ~mem:(p "nelt" / np * i 20_000)
          ();
        Builder.bcast b ~bytes:(i 96) ();
        Builder.loop b ~label:"cg_iter" ~var:"it" ~count:(p "niter") (fun () ->
            [
              Builder.call b "ax";
              Builder.call b "gs_op";
              Builder.allreduce b ~bytes:(i 8);
              Builder.comp b ~label:"axpy" ~locality:0.975
                ~flops:(p "nelt" / np * i 20_000)
                ~mem:(p "nelt" / np * i 30_000)
                ();
              Builder.allreduce b ~bytes:(i 8);
            ]);
        Builder.allreduce b ~bytes:(i 8);
      ]);
  Builder.program b
