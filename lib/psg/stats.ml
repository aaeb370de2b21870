(* PSG statistics — the columns of the paper's Table II, extended with
   the dataflow counts of the def-use pass. *)

type t = {
  program : string;
  kloc : float;
  vbc : int;  (* vertices before contraction *)
  vac : int;  (* vertices after contraction *)
  loops : int;
  branches : int;
  comps : int;
  mpis : int;
  calls : int;  (* kept (indirect/recursive) callsites *)
  defs : int;  (* definition sites (Defuse) *)
  uses : int;  (* use occurrences (Defuse) *)
  dd_edges : int;  (* data-dependence edges in the contracted PSG *)
  preds : int;  (* vertices carrying a symbolic scaling prediction *)
}

let count_kind psg pred =
  Psg.fold (fun acc v -> if pred v then acc + 1 else acc) 0 psg

let of_psgs ~defs ~uses ~dd_edges ~preds ~program ~lines ~(full : Psg.t)
    ~(contracted : Psg.t) =
  {
    program;
    kloc = float_of_int lines /. 1000.0;
    vbc = Psg.n_vertices full;
    vac = Psg.n_vertices contracted;
    loops = count_kind contracted Vertex.is_loop;
    branches = count_kind contracted Vertex.is_branch;
    comps = count_kind contracted Vertex.is_comp;
    mpis = count_kind contracted Vertex.is_mpi;
    calls = count_kind contracted Vertex.is_callsite;
    defs;
    uses;
    dd_edges;
    preds;
  }

let contraction_ratio t =
  if t.vbc = 0 then 0.0 else 1.0 -. (float_of_int t.vac /. float_of_int t.vbc)

let header =
  Printf.sprintf "%-14s %8s %6s %6s %6s %7s %6s %5s %5s %5s %5s %5s" "Program"
    "KLoc" "#VBC" "#VAC" "#Loop" "#Branch" "#Comp" "#MPI" "#Def" "#Use" "#DD"
    "#Pred"

let row t =
  Printf.sprintf "%-14s %8.1f %6d %6d %6d %7d %6d %5d %5d %5d %5d %5d"
    t.program t.kloc t.vbc t.vac t.loops t.branches t.comps t.mpis t.defs
    t.uses t.dd_edges t.preds
