(* Static scaling-loss linter.

   Purely syntactic/symbolic checks over the MiniMPI AST that recognize
   the communication patterns the paper's dynamic analysis keeps
   diagnosing at runtime: communication volume that grows with the
   process count, root-centralized patterns, point-to-point loops
   emulating collectives, communication that is invariant in its
   enclosing loop, and nonblocking-request misuse.  Each rule is a
   heuristic: a finding is a warning that the pattern *can* lose
   scalability, not a proof that it does — the report cross-references
   findings against the vertices the dynamic detector actually blames.

   The rules deliberately under-approximate.  Peer expressions that
   merely *renumber* with Nprocs (ring neighbours [(rank+1) % np], grid
   neighbours on an [isqrt np] side) are scalable and must not be
   flagged, so the volume rule probes message sizes numerically at
   increasing scales instead of pattern-matching on the syntax. *)

open Scalana_mlang

type rule =
  | Nprocs_volume  (* message volume grows with the process count *)
  | Root_centralized  (* reduce+bcast pairs, rank-0 fan-in/fan-out *)
  | P2p_collective  (* Nprocs-dependent loop of point-to-point calls *)
  | Loop_invariant_comm  (* identical message re-sent every iteration *)
  | Unwaited_request  (* nonblocking call whose request is never waited *)
  | Duplicate_waitall  (* the same request listed twice in one waitall *)
  | Send_recv_mismatch  (* sends to a rank outnumber its posted receives *)
  | Rank_tag_mismatch  (* channel exists but no receive matches its tag *)
  | Collective_divergence  (* ranks execute a collective unequally often *)

let rule_name = function
  | Nprocs_volume -> "nprocs-volume"
  | Root_centralized -> "root-centralized"
  | P2p_collective -> "p2p-collective"
  | Loop_invariant_comm -> "loop-invariant-comm"
  | Unwaited_request -> "unwaited-request"
  | Duplicate_waitall -> "duplicate-waitall"
  | Send_recv_mismatch -> "send-recv-mismatch"
  | Rank_tag_mismatch -> "rank-tag-mismatch"
  | Collective_divergence -> "collective-divergence"

let all_rules =
  [
    Nprocs_volume;
    Root_centralized;
    P2p_collective;
    Loop_invariant_comm;
    Unwaited_request;
    Duplicate_waitall;
    Send_recv_mismatch;
    Rank_tag_mismatch;
    Collective_divergence;
  ]

type finding = { rule : rule; loc : Loc.t; func : string; msg : string }

let pp_finding ppf f =
  Fmt.pf ppf "%s: [%s] %s: %s" (Loc.to_string f.loc) (rule_name f.rule) f.func
    f.msg

let finding_to_string = Fmt.to_to_string pp_finding

(* --- numeric probing --- *)

(* Evaluate [e] at increasing scales with everything else pinned: rank 1
   (rank 0 and rank np-1 sit on wrap-around boundaries of ring/grid
   arithmetic and would alias distinct behaviours), program parameters at
   their defaults, free variables at 1.  [None] when evaluation fails at
   any scale. *)
let probe (program : Ast.program) e =
  let vars = Expr.free_vars e in
  let n = List.length vars in
  let env =
    {
      Expr.Compiled.c_rank = 1;
      c_vars = Array.make n 1;
      c_bound = Bytes.make n '\001';
    }
  in
  let param p = List.assoc_opt p program.params in
  let var_slot v =
    Option.value ~default:(-1) (List.find_index (String.equal v) vars)
  in
  try
    Some
      (List.map
         (fun nprocs ->
           Expr.Compiled.eval env
             (Expr.Compiled.compile ~nprocs ~param ~var_slot e))
         [ 4; 16; 64 ])
  with Expr.Eval_error _ -> None

let strictly_increasing = function
  | [ a; b; c ] -> a < b && b < c
  | _ -> false

(* Message sizes of a call, labelled for the finding message. *)
let bytes_exprs = function
  | Ast.Send { bytes; _ }
  | Ast.Recv { bytes; _ }
  | Ast.Isend { bytes; _ }
  | Ast.Irecv { bytes; _ }
  | Ast.Bcast { bytes; _ }
  | Ast.Reduce { bytes; _ }
  | Ast.Allreduce { bytes }
  | Ast.Alltoall { bytes }
  | Ast.Allgather { bytes } ->
      [ bytes ]
  | Ast.Sendrecv { sbytes; rbytes; _ } -> [ sbytes; rbytes ]
  | Ast.Wait _ | Ast.Waitall _ | Ast.Barrier -> []

let exprs_of_mpi c =
  let peer = function Ast.Any_source -> [] | Ast.Peer e -> [ e ] in
  let tag = function Ast.Any_tag -> [] | Ast.Tag e -> [ e ] in
  match c with
  | Ast.Send { dest; tag = t; bytes } -> [ dest; t; bytes ]
  | Ast.Recv { src; tag = t; bytes } -> peer src @ tag t @ [ bytes ]
  | Ast.Isend { dest; tag = t; bytes; _ } -> [ dest; t; bytes ]
  | Ast.Irecv { src; tag = t; bytes; _ } -> peer src @ tag t @ [ bytes ]
  | Ast.Sendrecv { dest; stag; sbytes; src; rtag; rbytes } ->
      [ dest; stag; sbytes ] @ peer src @ tag rtag @ [ rbytes ]
  | Ast.Bcast { root; bytes } | Ast.Reduce { root; bytes } -> [ root; bytes ]
  | Ast.Allreduce { bytes } | Ast.Alltoall { bytes } | Ast.Allgather { bytes }
    ->
      [ bytes ]
  | Ast.Wait _ | Ast.Waitall _ | Ast.Barrier -> []

(* Calls that move data between a pair of ranks ([Wait]/[Waitall] are
   not collectives either, but move nothing). *)
let is_any_p2p = function
  | Ast.Send _ | Ast.Recv _ | Ast.Isend _ | Ast.Irecv _ | Ast.Sendrecv _ ->
      true
  | Ast.Wait _ | Ast.Waitall _ | Ast.Barrier | Ast.Bcast _ | Ast.Reduce _
  | Ast.Allreduce _ | Ast.Alltoall _ | Ast.Allgather _ ->
      false

(* Peer expressions of a point-to-point call. *)
let peer_exprs = function
  | Ast.Send { dest; _ } | Ast.Isend { dest; _ } -> [ dest ]
  | Ast.Recv { src; _ } | Ast.Irecv { src; _ } -> (
      match src with Ast.Any_source -> [] | Ast.Peer e -> [ e ])
  | Ast.Sendrecv { dest; src; _ } -> (
      dest :: (match src with Ast.Any_source -> [] | Ast.Peer e -> [ e ]))
  | _ -> []

(* --- rule 1: Nprocs-dependent message volume --- *)

(* A message size that *grows* with the process count is a per-vertex
   communication volume of Omega(P): probed at 4/16/64 ranks rather than
   matched syntactically, so [na / np] (shrinking partitions) and peer
   renumbering stay clean. *)
let check_volume program func (s : Ast.stmt) c findings =
  List.iter
    (fun bytes ->
      if Expr.depends_on_nprocs bytes then
        match probe program bytes with
        | Some values when strictly_increasing values ->
            findings :=
              {
                rule = Nprocs_volume;
                loc = s.Ast.loc;
                func;
                msg =
                  Fmt.str
                    "%s message size %s grows with the process count (%d B \
                     at 4 ranks, %d B at 64)"
                    (Ast.mpi_name c) (Expr.to_string bytes) (List.nth values 0)
                    (List.nth values 2);
              }
              :: !findings
        | _ -> ())
    (bytes_exprs c)

(* --- rule 2: root-centralized patterns --- *)

let static_rank_eq cond =
  match cond with
  | Expr.Bin (Expr.Eq, Expr.Rank, e) when Expr.is_static e -> Some e
  | Expr.Bin (Expr.Eq, e, Expr.Rank) when Expr.is_static e -> Some e
  | _ -> None

(* Reduce immediately followed (no intervening MPI) by a Bcast from the
   same root: an Allreduce written by hand, with twice the latency and a
   serializing root. *)
let check_reduce_bcast func (body : Ast.stmt list) findings =
  let rec scan = function
    | [] -> []
    | ({ Ast.node = Ast.Mpi (Ast.Reduce { root = r1; _ }); _ } as red) :: rest
      ->
        let rec to_bcast = function
          | [] -> ()
          | { Ast.node = Ast.Mpi (Ast.Bcast { root = r2; _ }); _ } :: _
            when Expr.equal r1 r2 ->
              findings :=
                {
                  rule = Root_centralized;
                  loc = red.Ast.loc;
                  func;
                  msg =
                    Fmt.str
                      "Reduce followed by Bcast from the same root (%s) — \
                       replace the pair with a single Allreduce"
                      (Expr.to_string r1);
                }
                :: !findings
          | { Ast.node = Ast.Mpi _; _ } :: _ -> ()
          | _ :: rest -> to_bcast rest
        in
        to_bcast rest;
        scan rest
    | _ :: rest -> scan rest
  in
  ignore (scan body)

(* Loops inside a [rank == c] branch that point-to-point with a peer
   indexed by the loop variable: a root looping over every other rank,
   i.e. a hand-rolled Gather/Scatter that serializes on the root. *)
let rec centralizing_loops (stmts : Ast.stmt list) =
  List.concat_map
    (fun (s : Ast.stmt) ->
      match s.node with
      | Ast.Loop l ->
          let fans_out =
            Expr.depends_on_nprocs l.count
            && Ast.fold_stmts
                 (fun acc (t : Ast.stmt) ->
                   acc
                   ||
                   match t.node with
                   | Ast.Mpi c ->
                       is_any_p2p c
                       && List.exists
                            (fun e -> List.mem l.var (Expr.free_vars e))
                            (peer_exprs c)
                   | _ -> false)
                 false l.body
          in
          (if fans_out then [ s ] else []) @ centralizing_loops l.body
      | Ast.Branch b -> centralizing_loops b.then_ @ centralizing_loops b.else_
      | _ -> [])
    stmts

let check_root_branch func (s : Ast.stmt) cond then_ else_ claimed findings =
  match static_rank_eq cond with
  | None -> ()
  | Some root ->
      let loops = centralizing_loops (then_ @ else_) in
      if loops <> [] then begin
        List.iter
          (fun (l : Ast.stmt) -> Hashtbl.replace claimed l.Ast.loc ())
          loops;
        findings :=
          {
            rule = Root_centralized;
            loc = s.Ast.loc;
            func;
            msg =
              Fmt.str
                "rank %s serially exchanges with every peer inside this \
                 branch — a hand-rolled collective that serializes on the \
                 root"
                (Expr.to_string root);
          }
          :: !findings
      end

(* --- rule 3: point-to-point loop emulating a collective --- *)

(* A loop whose trip count depends on Nprocs and whose body performs
   point-to-point communication: the communication *structure* itself
   scales with the process count (the NPB-CG transpose exchange).
   Loops already claimed by the root-centralized rule are skipped. *)
let check_p2p_loop func (s : Ast.stmt) (l : Ast.loop) claimed findings =
  if (not (Hashtbl.mem claimed s.Ast.loc)) && Expr.depends_on_nprocs l.count
  then begin
    let p2p = ref None in
    Ast.iter_stmts
      (fun (t : Ast.stmt) ->
        match t.node with
        | Ast.Mpi c when is_any_p2p c && !p2p = None -> p2p := Some c
        | _ -> ())
      l.body;
    match !p2p with
    | Some c ->
        findings :=
          {
            rule = P2p_collective;
            loc = s.Ast.loc;
            func;
            msg =
              Fmt.str
                "loop of %s trips runs %s per iteration — point-to-point \
                 rounds scale with the process count; consider a single \
                 collective"
                (Expr.to_string l.count) (Ast.mpi_name c);
          }
          :: !findings
    | None -> ()
  end

(* --- rule 4: loop-invariant communication --- *)

(* Literal trip counts of 0/1 are structural wrappers, not repetition. *)
let repeats (l : Ast.loop) =
  match l.count with Expr.Int n -> n > 1 | _ -> true

(* Data-distribution calls whose every argument is fully static (no
   rank, no variable) repeat an identical transfer each iteration of the
   enclosing loop — hoistable.  Rank-dependent halo patterns stay clean:
   their peers mention [rank]. *)
let check_loop_invariant func (s : Ast.stmt) c ~loops findings =
  let hoistable =
    match c with
    | Ast.Send _ | Ast.Isend _ | Ast.Sendrecv _ | Ast.Bcast _ -> true
    | _ -> false
  in
  if hoistable && List.exists repeats loops
     && List.for_all Expr.is_static (exprs_of_mpi c)
  then
    findings :=
      {
        rule = Loop_invariant_comm;
        loc = s.Ast.loc;
        func;
        msg =
          Fmt.str
            "%s arguments are invariant across the enclosing loop — the \
             identical transfer repeats every iteration; hoist it out"
            (Ast.mpi_name c);
      }
      :: !findings

(* --- rule 5: never-waited nonblocking requests --- *)

(* Uses the def-use chains: a request definition ([Isend]/[Irecv]) that
   no [Wait]/[Waitall] use is ever reached by. *)
let check_unwaited (f : Ast.func) findings =
  let chains = Scalana_cfg.Defuse.Chains.of_func f in
  List.iter
    (fun (sym, loc) ->
      match sym with
      | Scalana_cfg.Defuse.Req r ->
          findings :=
            {
              rule = Unwaited_request;
              loc;
              func = f.fname;
              msg =
                Fmt.str
                  "request %S is posted here but never reaches a wait — the \
                   operation may never complete"
                  r;
            }
            :: !findings
      | Scalana_cfg.Defuse.Var _ -> ())
    (Scalana_cfg.Defuse.Chains.unused_defs chains)

(* --- rule 6: duplicate requests in one waitall --- *)

let check_waitall func (s : Ast.stmt) reqs findings =
  let rec dup seen = function
    | [] -> None
    | r :: rest -> if List.mem r seen then Some r else dup (r :: seen) rest
  in
  match dup [] reqs with
  | Some r ->
      findings :=
        {
          rule = Duplicate_waitall;
          loc = s.Ast.loc;
          func;
          msg = Fmt.str "Waitall lists request %S twice" r;
        }
        :: !findings
  | None -> ()

(* --- rules 7-9: interprocedural channel audit --- *)

(* The first six rules are intraprocedural heuristics.  These three
   instead walk every rank's control flow concretely (the communication
   -cost analysis' audit walker) at two scales and check the *global*
   channel structure: every send needs a posted receive, tags must
   route, and collectives must be executed in lockstep.  A rule only
   fires when the walk was exact — an approximate walk (recursion,
   unresolved calls, fuel) can miss postings and would lie. *)

let audit_scales = [ 4; 16 ]

let dedup seen rule loc f =
  if not (Hashtbl.mem seen (rule, loc)) then begin
    Hashtbl.add seen (rule, loc) ();
    f ()
  end

(* Per-destination parity: messages sent into a rank vs receives it
   posts.  An excess of sends never completes (or overflows buffers);
   an excess of receives hangs.  Programs that post no receive at all
   are half-modelled sketches (one side of an exchange), not broken
   matchings — the rule stays quiet on them. *)
let check_send_parity (au : Scalana_cfg.Commcost.audit) seen findings =
  let open Scalana_cfg.Commcost in
  if au.au_recvs = [] then ()
  else begin
  let sends_to = Hashtbl.create 16 in
  List.iter
    (fun ((_, dst, _), (n, loc, func)) ->
      let tot, site =
        Option.value
          (Hashtbl.find_opt sends_to dst)
          ~default:(0, (loc, func))
      in
      Hashtbl.replace sends_to dst (tot + n, site))
    au.au_sends;
  let recvs_at = Hashtbl.create 16 in
  List.iter
    (fun ((dst, _, _), (n, _, _)) ->
      Hashtbl.replace recvs_at dst
        (Option.value (Hashtbl.find_opt recvs_at dst) ~default:0 + n))
    au.au_recvs;
  Hashtbl.iter
    (fun dst (sent, (loc, func)) ->
      let recvd = Option.value (Hashtbl.find_opt recvs_at dst) ~default:0 in
      if sent <> recvd then
        dedup seen Send_recv_mismatch loc @@ fun () ->
        findings :=
          {
            rule = Send_recv_mismatch;
            loc;
            func;
            msg =
              Fmt.str
                "at %d ranks, %d message(s) sent to rank %d but %d \
                 receive(s) posted there — unmatched point-to-point traffic"
                au.au_nprocs sent dst recvd;
          }
          :: !findings)
    sends_to;
  (* receives into ranks nobody sends to hang symmetrically *)
  List.iter
    (fun ((dst, _, _), (_, loc, func)) ->
      if not (Hashtbl.mem sends_to dst) then
        dedup seen Send_recv_mismatch loc @@ fun () ->
        findings :=
          {
            rule = Send_recv_mismatch;
            loc;
            func;
            msg =
              Fmt.str
                "at %d ranks, rank %d posts receives but no message is \
                 ever sent to it"
                au.au_nprocs dst;
          }
          :: !findings)
    au.au_recvs
  end

(* Tag routing: the per-destination totals balance, yet a concrete send
   channel (src, dst, tag) has no receive at [dst] accepting that source
   and tag — typically rank-dependent tag arithmetic that diverged
   between the two sides.  Each send is checked only against the
   receives its destination posts. *)
let check_tag_routing (au : Scalana_cfg.Commcost.audit) seen findings =
  let open Scalana_cfg.Commcost in
  let recvs_at = Array.make au.au_nprocs [] in
  List.iter
    (fun ((d, s, t), _) -> recvs_at.(d) <- (s, t) :: recvs_at.(d))
    au.au_recvs;
  let accepts ~src ~tag (s, t) =
    (match s with None -> true | Some s -> s = src)
    && match t with None -> true | Some t -> t = tag
  in
  List.iter
    (fun ((src, dst, tag), (_, loc, func)) ->
      let recvs = recvs_at.(dst) in
      if recvs <> [] && not (List.exists (accepts ~src ~tag) recvs) then
        dedup seen Rank_tag_mismatch loc @@ fun () ->
        findings :=
          {
            rule = Rank_tag_mismatch;
            loc;
            func;
            msg =
              Fmt.str
                "at %d ranks, the send rank %d -> rank %d with tag %d \
                 matches none of the receives rank %d posts — the tag \
                 expressions diverge between sender and receiver"
                au.au_nprocs src dst tag dst;
          }
          :: !findings)
    au.au_sends

(* Collectives are synchronizing: every rank must execute a given
   collective site the same number of times, or the slow side blocks
   forever.  Unequal counts mean the call sits under a rank-divergent
   branch (or a rank-dependent trip count). *)
let check_collective_lockstep (au : Scalana_cfg.Commcost.audit) seen findings =
  let open Scalana_cfg.Commcost in
  List.iter
    (fun ((func, loc), (op, counts)) ->
      let mn = Array.fold_left min max_int counts in
      let mx = Array.fold_left max 0 counts in
      if mn <> mx then
        dedup seen Collective_divergence loc @@ fun () ->
        findings :=
          {
            rule = Collective_divergence;
            loc;
            func;
            msg =
              Fmt.str
                "at %d ranks, %s executes between %d and %d times \
                 depending on the rank — a collective under a \
                 rank-divergent branch deadlocks"
                au.au_nprocs op mn mx;
          }
          :: !findings)
    au.au_colls

let check_audit (program : Ast.program) findings =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun nprocs ->
      let au = Scalana_cfg.Commcost.audit program ~nprocs in
      if au.Scalana_cfg.Commcost.au_exact then begin
        check_send_parity au seen findings;
        check_tag_routing au seen findings;
        check_collective_lockstep au seen findings
      end)
    audit_scales

(* --- driver --- *)

let run (program : Ast.program) =
  let findings = ref [] in
  List.iter
    (fun (f : Ast.func) ->
      let claimed = Hashtbl.create 8 in
      check_unwaited f findings;
      let rec walk ~loops stmts =
        check_reduce_bcast f.fname stmts findings;
        List.iter
          (fun (s : Ast.stmt) ->
            match s.node with
            | Ast.Loop l ->
                check_p2p_loop f.fname s l claimed findings;
                walk ~loops:(l :: loops) l.body
            | Ast.Branch b ->
                check_root_branch f.fname s b.cond b.then_ b.else_ claimed
                  findings;
                walk ~loops b.then_;
                walk ~loops b.else_
            | Ast.Mpi c ->
                check_volume program f.fname s c findings;
                check_loop_invariant f.fname s c ~loops findings;
                (match c with
                | Ast.Waitall { reqs } ->
                    check_waitall f.fname s reqs findings
                | _ -> ())
            | Ast.Comp _ | Ast.Call _ | Ast.Icall _ | Ast.Let _ -> ())
          stmts
      in
      walk ~loops:[] f.fbody)
    program.funcs;
  check_audit program findings;
  List.sort
    (fun a b ->
      match Loc.compare a.loc b.loc with
      | 0 -> compare a.rule b.rule
      | c -> c)
    !findings

let pp_report ppf findings =
  match findings with
  | [] -> Fmt.pf ppf "no findings@."
  | fs ->
      List.iter (fun f -> Fmt.pf ppf "%a@." pp_finding f) fs;
      Fmt.pf ppf "%d finding%s@." (List.length fs)
        (if List.length fs = 1 then "" else "s")
