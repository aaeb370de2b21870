(* Tests for PPG construction and the cross-scale container, plus the
   safety net of a PPG that reads its profile in place: a
   differential-equivalence suite that rebuilds every registry profile
   with the frozen pre-columnar builder (Ppg_reference) and asserts
   accessor-digest equality, and seeded properties for sparse-coverage
   round-trips through the profile rows. *)

open Scalana_mlang
open Scalana_psg
open Scalana_runtime
open Scalana_profile
open Scalana_ppg
open Testutil

let profile ?(nprocs = 4) ?(record_prob = 1.0) prog =
  let locals = Intra.build_all prog in
  let full = Inter.build ~locals prog in
  let contraction = Contract.run full in
  let index = Index.build ~full ~contraction in
  let config =
    Scalana.Config.profiler_config { Scalana.Config.default with record_prob }
  in
  let profiler = Profiler.create ~config ~index ~nprocs () in
  let cfg = Exec.config ~nprocs ~tools:[ Profiler.tool profiler ] () in
  ignore (Exec.run ~cfg prog);
  (contraction.Contract.psg, Profiler.data profiler)

(* Row reads through the profile rows the PPG serves: one vertex's cells
   across ranks, copied out, or a zero row when no rank reported there;
   and one cell of that row.  Waits are read from the same profile
   row. *)
let waits_row (p : Ppg.t) ~vertex =
  Option.map
    (fun (r : Profdata.row) -> r.waits)
    (Profdata.row p.Ppg.data ~vertex)

let row_of (p : Ppg.t) row ~vertex =
  match row ~vertex with
  | Some a -> Array.copy a
  | None -> Array.make p.Ppg.nprocs 0.0

let cell_of (p : Ppg.t) row ~rank ~vertex =
  match row ~vertex with
  | Some a when rank >= 0 && rank < p.Ppg.nprocs -> a.(rank)
  | _ -> 0.0

let times_of p ~vertex = row_of p (Ppg.times p) ~vertex
let time_of p ~rank ~vertex = cell_of p (Ppg.times p) ~rank ~vertex
let wait_of p ~rank ~vertex = cell_of p (waits_row p) ~rank ~vertex

(* late-sender chain: rank r+1 waits on rank r's send *)
let chain_program () =
  let open Expr.Infix in
  let b = Builder.create ~file:"chain.mmp" ~name:"chain" () in
  Builder.func b "main" (fun () ->
      [
        Builder.loop b ~label:"steps" ~var:"s" ~count:(i 6) (fun () ->
            [
              Builder.branch b
                ~cond:(rank = i 0)
                (fun () ->
                  [
                    Builder.comp b ~label:"origin" ~flops:(i 40_000_000)
                      ~mem:(i 15_000_000) ();
                  ]);
              Builder.branch b
                ~cond:(rank > i 0)
                (fun () ->
                  [
                    Builder.recv b ~src:(rank - i 1) ~tag:(i 1)
                      ~bytes:(i 4096) ();
                  ]);
              Builder.branch b
                ~cond:(rank < np - i 1)
                (fun () ->
                  [
                    Builder.send b ~dest:(rank + i 1) ~tag:(i 1)
                      ~bytes:(i 4096) ();
                  ]);
              Builder.allreduce b ~bytes:(i 8);
            ]);
      ]);
  Builder.program b

let test_ppg_comm_edges () =
  let psg, data = profile (chain_program ()) in
  let ppg = Ppg.build ~psg data in
  check_bool "edges exist" true (Ppg.n_comm_edges ppg > 0);
  (* rank 2's recv has an incoming edge from rank 1 *)
  let recv_vertex =
    List.find
      (fun v ->
        match v.Vertex.kind with
        | Vertex.Mpi (Ast.Recv _) -> true
        | _ -> false)
      (Psg.find_all Vertex.is_mpi psg)
  in
  let edges = Ppg.incoming_edges ppg ~rank:2 ~vertex:recv_vertex.Vertex.id in
  check_bool "rank2 incoming" true (edges <> []);
  List.iter
    (fun e -> check_int "sender is rank 1" 1 (Commrec.send_rank data.comm e))
    edges

let test_ppg_waiting_edges_filter () =
  let psg, data = profile (chain_program ()) in
  let ppg = Ppg.build ~psg data in
  let recv_vertex =
    List.find
      (fun v ->
        match v.Vertex.kind with Vertex.Mpi (Ast.Recv _) -> true | _ -> false)
      (Psg.find_all Vertex.is_mpi psg)
  in
  (* rank 1 waits on rank 0's origin delay: critical edge present *)
  (match Ppg.critical_edge ppg ~rank:1 ~vertex:recv_vertex.Vertex.id with
  | Some e ->
      check_int "from rank 0" 0 (Commrec.send_rank data.comm e);
      check_bool "waited" true (Commrec.has_wait data.comm e)
  | None -> Alcotest.fail "rank 1 should have a waiting edge");
  (* the critical edge is one of the incoming edges *)
  let all = Ppg.incoming_edges ppg ~rank:1 ~vertex:recv_vertex.Vertex.id in
  check_bool "subset" true
    (match Ppg.critical_edge ppg ~rank:1 ~vertex:recv_vertex.Vertex.id with
    | Some e -> List.mem e all
    | None -> false)

let test_ppg_coll_late_rank () =
  let psg, data = profile (chain_program ()) in
  let ppg = Ppg.build ~psg data in
  let allreduce =
    List.find
      (fun v ->
        match v.Vertex.kind with
        | Vertex.Mpi (Ast.Allreduce _) -> true
        | _ -> false)
      (Psg.find_all Vertex.is_mpi psg)
  in
  match Ppg.coll_late_rank ppg ~vertex:allreduce.Vertex.id with
  | Some late -> check_int "last rank arrives last" 3 late
  | None -> Alcotest.fail "no collective record"

let test_ppg_times () =
  let psg, data = profile (chain_program ()) in
  let ppg = Ppg.build ~psg data in
  let origin =
    List.find
      (fun v ->
        match v.Vertex.kind with
        | Vertex.Comp { label = Some "origin"; _ } -> true
        | _ -> false)
      (Psg.find_all Vertex.is_comp psg)
  in
  let times = times_of ppg ~vertex:origin.Vertex.id in
  check_bool "rank0 dominates" true
    (times.(0) > times.(1) && times.(0) > times.(2) && times.(0) > times.(3));
  check_bool "total positive" true (Ppg.total_time ppg > 0.0)

let test_crossscale () =
  let prog = chain_program () in
  let psg, d4 = profile ~nprocs:4 prog in
  let _, d8 = profile ~nprocs:8 prog in
  let cs = Crossscale.create ~psg [ (8, d8); (4, d4) ] in
  Alcotest.(check (list int)) "scales sorted" [ 4; 8 ] (Crossscale.scales cs);
  let n, _ = Crossscale.largest cs in
  check_int "largest" 8 n;
  check_bool "ppg at 4 exists" true (Crossscale.ppg_at cs ~nprocs:4 <> None);
  check_bool "ppg at 16 missing" true (Crossscale.ppg_at cs ~nprocs:16 = None);
  let touched = Crossscale.touched_vertices cs in
  check_bool "touched nonempty" true (touched <> []);
  (* every scale carries one nprocs-wide row per touched vertex *)
  let v = List.hd touched in
  check_int "two runs" 2 (List.length cs.Crossscale.runs);
  List.iter
    (fun (n, ppg) -> check_int "row width" n (Array.length (times_of ppg ~vertex:v)))
    cs.Crossscale.runs

(* --- differential equivalence against the frozen pre-columnar builder ---

   Every accessor of the production PPG, digested and compared against
   Ppg_reference built from the *same* profile, over the full Table II
   registry at np in {4, 16, 64}, clean and under a fault plan that
   exercises every degraded shape the rows must carry: a killed rank
   (absent cells), a skewed clock (asymmetric values), and poisoned
   metrics (NaN and negative cells that must survive bit-for-bit).
   Mirrors the 66-digest engine pin of the simulator rework. *)

(* Everything observable about a PPG, as first-class accessors, so the
   digest below is computed by one function for both implementations. *)
type view = {
  v_nprocs : int;
  v_touched : int list;
  v_effective : float;
  v_total_time : float;
  v_n_comm_edges : int;
  v_time_of : rank:int -> vertex:int -> float;
  v_wait_of : rank:int -> vertex:int -> float;
  v_times : vertex:int -> float array;
  v_waits : vertex:int -> float array;
  v_coverage : vertex:int -> float;
  v_total_wait : vertex:int -> float;
  v_incoming : rank:int -> vertex:int -> (int * int * bool * float * int) list;
  v_critical : rank:int -> vertex:int -> (int * int * bool * float * int) option;
  v_coll_late : vertex:int -> int option;
}

let view_of_ppg (p : Ppg.t) =
  let comm = p.Ppg.data.Profdata.comm in
  let edge e =
    ( Commrec.send_rank comm e,
      Commrec.send_vertex comm e,
      Commrec.has_wait comm e,
      Commrec.max_wait comm e,
      Commrec.hits comm e )
  in
  {
    v_nprocs = p.Ppg.nprocs;
    v_touched = Ppg.touched_vertices p;
    v_effective = Ppg.effective_nprocs p;
    v_total_time = Ppg.total_time p;
    v_n_comm_edges = Ppg.n_comm_edges p;
    v_time_of = (fun ~rank ~vertex -> time_of p ~rank ~vertex);
    v_wait_of = (fun ~rank ~vertex -> wait_of p ~rank ~vertex);
    v_times = (fun ~vertex -> times_of p ~vertex);
    v_waits = (fun ~vertex -> row_of p (waits_row p) ~vertex);
    v_coverage = (fun ~vertex -> Ppg.coverage p ~vertex);
    v_total_wait = (fun ~vertex -> Ppg.total_wait p ~vertex);
    v_incoming =
      (fun ~rank ~vertex ->
        List.map edge (Ppg.incoming_edges p ~rank ~vertex));
    v_critical =
      (fun ~rank ~vertex ->
        Option.map edge (Ppg.critical_edge p ~rank ~vertex));
    v_coll_late = (fun ~vertex -> Ppg.coll_late_rank p ~vertex);
  }

let view_of_reference (p : Ppg_reference.t) =
  let edge (e : Ppg_reference.comm_edge) =
    ( e.Ppg_reference.send_rank,
      e.Ppg_reference.send_vertex,
      e.Ppg_reference.has_wait,
      e.Ppg_reference.max_wait,
      e.Ppg_reference.hits )
  in
  {
    v_nprocs = p.Ppg_reference.nprocs;
    v_touched = Ppg_reference.touched_vertices p;
    v_effective = Ppg_reference.effective_nprocs p;
    v_total_time = Ppg_reference.total_time p;
    v_n_comm_edges = Ppg_reference.n_comm_edges p;
    v_time_of = (fun ~rank ~vertex -> Ppg_reference.time_of p ~rank ~vertex);
    v_wait_of = (fun ~rank ~vertex -> Ppg_reference.wait_of p ~rank ~vertex);
    v_times = (fun ~vertex -> Ppg_reference.times_across_ranks p ~vertex);
    v_waits = (fun ~vertex -> Ppg_reference.waits_across_ranks p ~vertex);
    v_coverage = (fun ~vertex -> Ppg_reference.coverage p ~vertex);
    v_total_wait = (fun ~vertex -> Ppg_reference.total_wait p ~vertex);
    v_incoming =
      (fun ~rank ~vertex ->
        List.map edge (Ppg_reference.incoming_edges p ~rank ~vertex));
    v_critical =
      (fun ~rank ~vertex ->
        Option.map edge (Ppg_reference.critical_edge p ~rank ~vertex));
    v_coll_late = (fun ~vertex -> Ppg_reference.coll_late_rank p ~vertex);
  }

(* Digest every accessor over every (vertex, rank) cell, one digest per
   accessor so a mismatch names the diverging component.  Marshal keeps
   float bit patterns (NaN included), so the digests pin values to the
   last bit, not to a print precision. *)
let component_digests v =
  (* No_sharing: the boxed reference store can return the same physical
     float box (the static 0.0) for many cells, which sharing-aware
     marshaling encodes as back-references; the digest must depend on
     values alone *)
  let d x =
    Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))
  in
  let per_vertex f = List.map (fun vertex -> f ~vertex) v.v_touched in
  let per_cell f =
    per_vertex (fun ~vertex ->
        List.init v.v_nprocs (fun rank -> f ~rank ~vertex))
  in
  [
    ( "header",
      d
        ( v.v_nprocs,
          v.v_touched,
          v.v_effective,
          v.v_total_time,
          v.v_n_comm_edges ) );
    ("times_across_ranks", d (per_vertex v.v_times));
    ("waits_across_ranks", d (per_vertex v.v_waits));
    ("coverage", d (per_vertex v.v_coverage));
    ("total_wait", d (per_vertex v.v_total_wait));
    ("coll_late_rank", d (per_vertex v.v_coll_late));
    ("time_of", d (per_cell v.v_time_of));
    ("wait_of", d (per_cell v.v_wait_of));
    ("incoming_edges", d (per_cell v.v_incoming));
    ("critical_edge", d (per_cell v.v_critical));
  ]

let test_differential_registry () =
  let checked = ref 0 in
  List.iter
    (fun (entry : Scalana_apps.Registry.entry) ->
      List.iter
        (fun nprocs ->
          List.iter
            (fun (mode, faults) ->
              let psg, data = profile_entry ?faults entry ~nprocs in
              let production =
                component_digests (view_of_ppg (Ppg.build ~psg data))
              in
              let reference =
                component_digests
                  (view_of_reference (Ppg_reference.build ~psg data))
              in
              List.iter2
                (fun (name, r) (name', c) ->
                  assert (String.equal name name');
                  check_string
                    (Printf.sprintf "%s np=%d %s: %s"
                       entry.Scalana_apps.Registry.name nprocs mode name)
                    r c)
                reference production;
              incr checked)
            [ ("clean", None); ("faulted", Some diff_fault_plan) ])
        [ 4; 16; 64 ])
    Scalana_apps.Registry.all;
  (* the full pin: 11 apps x 3 scales x clean+faulted *)
  check_int "66 digests compared" 66 !checked

(* --- seeded properties for the rows the PPG reads --- *)

(* A hand-filled profile: an arbitrary sparse pattern of (rank, vertex)
   cells, some carrying NaN/negative poison, fed straight into the
   build.  The model is a plain association of what was written where. *)
type cell = { c_rank : int; c_vid : int; c_time : float; c_wait : float }

let prop_nprocs = 8

let cell_arb =
  let open Prop in
  let raw =
    pair (int_range 0 (prop_nprocs - 1))
      (pair (int_range 0 24) (pair (int_range 0 11) (float_range 0.001 5.0)))
  in
  map
    (fun (r, (vid, (shape, x))) ->
      let time =
        match shape with
        | 0 -> Float.nan  (* poisoned counter *)
        | 1 -> -.x  (* negative garbage *)
        | _ -> x
      in
      { c_rank = r; c_vid = vid; c_time = time; c_wait = x /. 2.0 })
    ~show:(fun c ->
      Printf.sprintf "r%d v%d t=%h w=%h" c.c_rank c.c_vid c.c_time c.c_wait)
    raw

let cells_arb = Prop.list_of ~max_len:48 cell_arb

(* The PSG handed to the hand-built profiles; the store never reads it
   for cell queries, so any graph works. *)
let prop_psg = lazy (fst (profile (chain_program ())))

let build_sparse cells =
  let data = Profdata.create ~nprocs:prop_nprocs in
  List.iter
    (fun c ->
      Profdata.add_sampled data ~rank:c.c_rank ~vertex:c.c_vid ~time:c.c_time
        ~samples:1 ~pmu:Pmu.zero;
      Profdata.add_wait data ~rank:c.c_rank ~vertex:c.c_vid ~wait:c.c_wait)
    cells;
  (data, Ppg.build ~psg:(Lazy.force prop_psg) data)

let bits = Int64.bits_of_float
let same_float a b = bits a = bits b

(* Expected cell values: accumulated sums per (rank, vid), as add_sampled
   and add_wait leave them. *)
let model cells =
  let m = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let t0, w0, n0 =
        match Hashtbl.find_opt m (c.c_rank, c.c_vid) with
        | Some x -> x
        | None -> (0.0, 0.0, 0)
      in
      Hashtbl.replace m (c.c_rank, c.c_vid)
        (t0 +. c.c_time, w0 +. c.c_wait, n0 + 1))
    cells;
  m

let prop_sparse_round_trip cells =
  let _, ppg = build_sparse cells in
  let m = model cells in
  (* present cells come back bit-for-bit (NaN and negatives included) *)
  Hashtbl.iter
    (fun (rank, vid) (t, w, _) ->
      if not (same_float t (time_of ppg ~rank ~vertex:vid)) then
        failwith "present time mismatch";
      if not (same_float w (wait_of ppg ~rank ~vertex:vid)) then
        failwith "present wait mismatch")
    m;
  (* absent cells are NaN-safe zeros, never garbage *)
  for vid = 0 to 24 do
    for rank = 0 to prop_nprocs - 1 do
      if not (Hashtbl.mem m (rank, vid)) then begin
        let t = time_of ppg ~rank ~vertex:vid in
        let w = wait_of ppg ~rank ~vertex:vid in
        if not (same_float t 0.0 && same_float w 0.0) then
          failwith "absent cell not a clean zero"
      end
    done;
    (* coverage counts exactly the present ranks and stays finite *)
    let present = ref 0 in
    for rank = 0 to prop_nprocs - 1 do
      if Hashtbl.mem m (rank, vid) then incr present
    done;
    let cov = Ppg.coverage ppg ~vertex:vid in
    if Float.is_nan cov then failwith "coverage NaN";
    if abs_float (cov -. (float_of_int !present /. float_of_int prop_nprocs))
       > 1e-12
    then failwith "coverage count wrong"
  done;
  true

(* Each touched vertex's rows, read in place, hold what the frozen boxed
   store serves cell by cell. *)
let prop_row_gather_equals_cells cells =
  let data, ppg = build_sparse cells in
  let reference = Ppg_reference.build ~psg:(Lazy.force prop_psg) data in
  List.for_all
    (fun vid ->
      match (Ppg.times ppg ~vertex:vid, waits_row ppg ~vertex:vid) with
      | Some times, Some waits ->
          Array.length times = prop_nprocs
          && List.for_all
               (fun rank ->
                 same_float times.(rank)
                   (Ppg_reference.time_of reference ~rank ~vertex:vid)
                 && same_float waits.(rank)
                      (Ppg_reference.wait_of reference ~rank ~vertex:vid))
               (List.init prop_nprocs Fun.id)
      | _ -> false)
    (Ppg.touched_vertices ppg)

(* Sanitize over the PPG's rows: idempotent, always a fresh array, and
   the row it scans in place is left untouched. *)
let prop_sanitize_idempotent cells =
  let _, ppg = build_sparse cells in
  let sanitize = Scalana_detect.Aggregate.sanitize in
  List.for_all
    (fun vid ->
      match Ppg.times ppg ~vertex:vid with
      | None -> false
      | Some row ->
          let before = Array.copy row in
          let clean1, dropped1 = sanitize row in
          let clean2, dropped2 = sanitize clean1 in
          dropped2 = 0
          && (Array.length clean1 = 0 || clean2 != clean1)
          && Array.for_all2 same_float clean1 clean2
          && dropped1 = prop_nprocs - Array.length clean1
          && Array.for_all2 same_float before row
          && Array.for_all (fun x -> not (Float.is_nan x || x < 0.0)) clean1)
    (Ppg.touched_vertices ppg)

let () =
  Alcotest.run "ppg"
    [
      ( "build",
        [
          Alcotest.test_case "comm edges" `Quick test_ppg_comm_edges;
          Alcotest.test_case "waiting edges" `Quick
            test_ppg_waiting_edges_filter;
          Alcotest.test_case "collective late rank" `Quick
            test_ppg_coll_late_rank;
          Alcotest.test_case "per-rank times" `Quick test_ppg_times;
        ] );
      ("crossscale", [ Alcotest.test_case "container" `Quick test_crossscale ]);
      ( "differential",
        [
          Alcotest.test_case "registry x scales x clean+faulted" `Quick
            test_differential_registry;
        ] );
      ( "columnar-props",
        [
          Prop.test ~count:60 "sparse coverage round-trips" cells_arb
            prop_sparse_round_trip;
          Prop.test ~count:60 "row gather equals cell reads" cells_arb
            prop_row_gather_equals_cells;
          Prop.test ~count:60 "sanitize idempotent over rows" cells_arb
            prop_sanitize_idempotent;
        ] );
    ]
