(* Backtracking root-cause detection (Section IV-B, Algorithm 1).

   Starting from a problematic vertex, walk the PPG backwards:
   - at a P2P MPI vertex that waited, jump along the inter-process
     communication-dependence edge to the sender's vertex (pruned to
     edges that carried an actual wait);
   - at a collective vertex, jump to the rank that habitually arrives
     last (the culprit), then continue within that process;
   - at an unscanned Loop/Branch vertex, follow the control-dependence
     edge into the structure (continue from its end vertex);
   - otherwise follow the data-dependence edge (previous component in
     execution order, or the enclosing structure).
   The walk stops at the root, at a collective already attributed, or
   when a cycle/step budget is hit. *)

open Scalana_psg
open Scalana_ppg
module Commrec = Scalana_profile.Commrec

type via =
  | Start
  | Comm_dep of { from_rank : int }  (* inter-process edge *)
  | Coll_jump of { from_rank : int }  (* to the last-arrival rank *)
  | Control_dep  (* into a loop/branch body *)
  | Data_dep
  | Def_use  (* explicit def-use edge (Datadep annotation) *)

type step = { rank : int; vertex : int; via : via }
type path = step list

type config = {
  prune_non_wait : bool;  (* keep only comm edges with a wait (paper: on) *)
  follow_def_use : bool;
      (* step along recorded def-use edges instead of sibling order when
         the vertex has one (off = paper-faithful Algorithm 1) *)
}

let default_config = { prune_non_wait = true; follow_def_use = false }

(* One walk's step budget. *)
let max_steps = 4096

let via_name = function
  | Start -> "start"
  | Comm_dep { from_rank } -> Printf.sprintf "comm<-r%d" from_rank
  | Coll_jump { from_rank } -> Printf.sprintf "coll<-r%d" from_rank
  | Control_dep -> "control"
  | Data_dep -> "data"
  | Def_use -> "defuse"

(* Previous component in execution order; falls back to the enclosing
   structure when the vertex heads its body.  With [follow_def_use], a
   vertex carrying an explicit data-dependence edge steps to its nearest
   preceding definition instead (vertex ids are assigned in execution
   order, so "nearest preceding" is the largest defining id below
   [vid]). *)
let data_dep ~config psg vid =
  let def_use =
    if config.follow_def_use then
      List.fold_left
        (fun acc d ->
          if d < vid && (match acc with Some m -> d > m | None -> true) then
            Some d
          else acc)
        None (Psg.data_deps psg vid)
    else None
  in
  match def_use with
  | Some d -> Some (d, Def_use)
  | None -> (
      match Psg.prev_sibling psg vid with
      | Some p -> Some (p, Data_dep)
      | None -> (
          match Psg.parent psg vid with
          | Some p -> Some (p, Data_dep)
          | None -> None))

let backtrack ?(config = default_config) (ppg : Ppg.t) ~visited ~start_rank
    ~start_vertex =
  let psg = ppg.Ppg.psg in
  let comm = ppg.Ppg.data.Scalana_profile.Profdata.comm in
  let path = ref [] in
  let local_seen = Hashtbl.create 64 in
  let entered = Hashtbl.create 16 in
  let push rank vertex via =
    path := { rank; vertex; via } :: !path;
    Hashtbl.replace visited (rank, vertex) ();
    Hashtbl.replace local_seen (rank, vertex) ()
  in
  let rec go rank vid via steps =
    if steps >= max_steps then ()
    else if Hashtbl.mem local_seen (rank, vid) && via <> Start then
      (* cycle within this walk *)
      ()
    else begin
      let v = Psg.vertex psg vid in
      match v.Vertex.kind with
      | Vertex.Root _ -> push rank vid via
      | Vertex.Mpi call when Scalana_mlang.Ast.is_collective call -> (
          push rank vid via;
          let late = Ppg.coll_late_rank ppg ~vertex:vid in
          match late with
          | Some culprit when culprit <> rank ->
              (* jump to the habitual last arriver and continue there *)
              go culprit vid (Coll_jump { from_rank = rank }) (steps + 1)
          | Some _ ->
              (* we are on the culprit rank: the cause precedes the
                 collective in its own control flow *)
              continue_data rank vid steps
          | None -> if via = Start then continue_data rank vid steps)
      | Vertex.Mpi call ->
          push rank vid via;
          if Scalana_mlang.Ast.can_wait call then begin
            let edge =
              if config.prune_non_wait then
                Ppg.critical_edge ppg ~rank ~vertex:vid
              else begin
                match Ppg.incoming_edges ppg ~rank ~vertex:vid with
                | [] -> None
                | e :: _ -> Some e
              end
            in
            match edge with
            | Some e ->
                go
                  (Commrec.send_rank comm e)
                  (Commrec.send_vertex comm e)
                  (Comm_dep { from_rank = rank })
                  (steps + 1)
            | None -> continue_data rank vid steps
          end
          else continue_data rank vid steps
      | Vertex.Loop _ | Vertex.Branch ->
          push rank vid via;
          if not (Hashtbl.mem entered (rank, vid)) then begin
            Hashtbl.replace entered (rank, vid) ();
            match Psg.last_child psg vid with
            | Some c -> go rank c Control_dep (steps + 1)
            | None -> continue_data rank vid steps
          end
          else continue_data rank vid steps
      | Vertex.Comp _ | Vertex.Callsite _ ->
          push rank vid via;
          continue_data rank vid steps
    end
  and continue_data rank vid steps =
    match data_dep ~config psg vid with
    | Some (next, via) -> go rank next via (steps + 1)
    | None -> ()
  in
  go start_rank start_vertex Start 0;
  List.rev !path

let pp_step psg ppf s =
  let v = Psg.vertex psg s.vertex in
  Fmt.pf ppf "[r%d] %s @%a (%s)" s.rank (Vertex.label v) Scalana_mlang.Loc.pp
    v.Vertex.loc (via_name s.via)

let pp_path psg ppf path =
  List.iteri
    (fun i s ->
      if i > 0 then Fmt.pf ppf "@.  <- ";
      pp_step psg ppf s)
    path
