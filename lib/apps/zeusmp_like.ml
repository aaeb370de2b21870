(* Zeus-MP analogue (Section VI-D1).

   A 3-D MHD timestep loop: source-step force/Lorentz updates, the
   cache-hostile hsmoc transport loops, and the nudt timestep reduction
   fed by three boundary-value routines with non-blocking halo exchanges.
   The planted scaling loss mirrors the paper's diagnosis: the
   boundary-value loops (bval*_loop, the analogue of bval3d.F:155) run
   only on a quarter of the ranks and their work does not shrink with the
   process count, so the delay propagates through the nudt waitalls
   (nudt.F:227/269/328) into the MPI_Allreduce (nudt.F:361).

   [optimized] applies the paper's two fixes: OpenMP multi-threading of
   the boundary loops (8 threads) and loop tiling / scalar promotion in
   hsmoc (fewer loads, better locality). *)

open Scalana_mlang
open Expr.Infix

let busy_cond = rank % i 4 = i 0

let make ?(optimized = false) () =
  let b = Builder.create ~file:"zeusmp.mmp" ~name:"zeus-mp" () in
  Builder.param b "n3" 38_000_000;  (* volume grid work per field *)
  Builder.param b "jn" 64;  (* boundary loop trips *)
  Builder.param b "bwork" 13_000;  (* per-trip boundary work *)
  Builder.param b "nsteps" 20;
  Builder.param b "halo" 300_000;  (* halo bytes at np=1 *)
  (* the optimized variant multi-threads the boundary loops (8 threads) *)
  let threaded e = if optimized then Expr.Bin (Expr.Div, e, Expr.Int 8) else e in
  let hsmoc_locality = if optimized then 0.64 else 0.62 in
  let hsmoc_mem_scale = 3 in
  (* One boundary-value routine per velocity component, as in bval3d.F *)
  let bval name =
    Builder.func b name (fun () ->
        [
          Builder.branch b ~cond:busy_cond (fun () ->
              [
                Builder.loop b
                  ~label:(name ^ "_loop")
                  ~var:"j" ~count:(p "jn")
                  (fun () ->
                    [
                      Builder.comp b
                        ~label:(name ^ "_update")
                        ~locality:0.75
                        ~flops:(threaded (p "bwork"))
                        ~mem:(threaded (i 2 * p "bwork"))
                        ();
                    ]);
              ]);
          Builder.comp b ~label:(name ^ "_edges") ~locality:0.9
            ~flops:(i 20_000) ~mem:(i 30_000) ();
        ])
  in
  bval "bvalv1";
  bval "bvalv2";
  bval "bvalv3";
  Builder.func b "nudt" (fun () ->
      [ Builder.call b "bvalv1" ]
      @ Common.nonblocking_halo b ~tag:20 ~bytes:(p "halo" / isqrt np) ()
      @ [
          Builder.comp b ~label:"courant_v1" ~locality:0.82
            ~flops:(i 2 * p "n3" / np / i 8)
            ~mem:(p "n3" / np / i 8)
            ();
          Builder.call b "bvalv2";
        ]
      @ Common.nonblocking_halo b ~tag:30 ~bytes:(p "halo" / isqrt np) ()
      @ [
          Builder.comp b ~label:"courant_v2" ~locality:0.82
            ~flops:(i 2 * p "n3" / np / i 8)
            ~mem:(p "n3" / np / i 8)
            ();
          Builder.call b "bvalv3";
        ]
      @ Common.nonblocking_halo b ~tag:40 ~bytes:(p "halo" / isqrt np) ()
      @ [
          Builder.comp b ~label:"courant_min" ~locality:0.9
            ~flops:(p "n3" / np / i 16)
            ~mem:(p "n3" / np / i 32)
            ();
          Builder.allreduce b ~bytes:(i 8);  (* the nudt.F:361 analogue *)
        ]);
  let hsmoc_loop name =
    Builder.loop b ~label:name ~var:"s" ~count:(i 4) (fun () ->
        [
          Builder.comp b ~label:(name ^ "_body") ~locality:hsmoc_locality
            ~flops:(i 2 * p "n3" / np / i 4)
            ~mem:(i hsmoc_mem_scale * p "n3" / np / i 4)
            ();
        ])
  in
  Builder.func b "hsmoc" (fun () ->
      [ hsmoc_loop "hsmoc_665" ]
      @ Common.nonblocking_halo b ~tag:50 ~bytes:(p "halo" / isqrt np) ()
      @ [ hsmoc_loop "hsmoc_841"; hsmoc_loop "hsmoc_1041" ]
      @ Common.nonblocking_halo b ~tag:60 ~bytes:(p "halo" / isqrt np) ());
  Builder.func b "forces" (fun () ->
      [
        Builder.comp b ~label:"gravity_pressure" ~locality:0.88
          ~flops:(i 5 * p "n3" / np)
          ~mem:(i 2 * p "n3" / np)
          ();
      ]
      @ Common.nonblocking_halo b ~tag:70 ~bytes:(p "halo" / isqrt np) ());
  Builder.func b "lorentz" (fun () ->
      [
        Builder.comp b ~label:"lorentz_update" ~locality:0.86
          ~flops:(i 4 * p "n3" / np)
          ~mem:(i 2 * p "n3" / np)
          ();
      ]);
  Builder.func b "main" (fun () ->
      Common.setup_phase b ~name:"ggen" ~work:(p "n3" / np / i 64) ()
      @ Common.setup_phase b ~name:"mstart" ~work:(p "n3" / np / i 128) ()
      @ [
        Builder.comp b ~label:"setup_grid" ~locality:0.9
          ~flops:(p "n3" / np / i 4)
          ~mem:(p "n3" / np / i 4)
          ();
        Builder.bcast b ~bytes:(i 256) ();
        Builder.loop b ~label:"timestep" ~var:"step" ~count:(p "nsteps")
          (fun () ->
            [
              Builder.call b "forces";
              Builder.call b "lorentz";
              Builder.call b "hsmoc";
              Builder.call b "nudt";
            ]);
        Builder.allreduce b ~bytes:(i 8);
      ]);
  Builder.program b
