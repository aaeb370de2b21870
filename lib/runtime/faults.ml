(* Fault injection (robustness harness).

   Where Inject adds *delays* (the paper's Fig. 2 experiment), this module
   reproduces the operational failures of production runs: ranks dying
   mid-run, metrics coming back as NaN/garbage, skewed clocks, whole scale
   points missing, and artifact files truncated or bit-flipped on disk.
   Faults are described by a declarative plan and armed deterministically
   from (seed, nprocs, attempt), so any failure is reproducible byte for
   byte and a retry with a new attempt number re-draws the probabilistic
   ones. *)

type poison_kind = [ `Nan | `Negative ]

type fault =
  | Kill_rank of { rank : int; after : float; prob : float }
      (* rank dies once its simulated clock passes [after] seconds *)
  | Clock_skew of { rank : int; factor : float }
      (* rank's computation runs [factor] times slower *)
  | Poison_metric of { ranks : int list option; kind : poison_kind; prob : float }
      (* per-(rank, vertex) chance of a NaN / negative time value *)
  | Drop_scale of { nprocs : int }
      (* the whole run at this scale never happens *)

type plan = { seed : int; faults : fault list }

let empty = { seed = 0; faults = [] }
let plan ?(seed = 42) faults = { seed; faults }

let kill_rank ?(prob = 1.0) ~rank ~after () = Kill_rank { rank; after; prob }
let clock_skew ~rank ~factor =
  if not (Float.is_finite factor && factor > 0.0) then
    Fmt.invalid_arg "Faults.clock_skew: factor %g must be finite and > 0"
      factor;
  Clock_skew { rank; factor }

let poison_metric ?ranks ?(prob = 1.0) kind =
  Poison_metric { ranks; kind; prob }

let drop_scale nprocs = Drop_scale { nprocs }

let drops_scale t ~nprocs =
  List.exists (function Drop_scale d -> d.nprocs = nprocs | _ -> false) t.faults

(* --- deterministic draws (splitmix64) --- *)

let mix64 x =
  let open Int64 in
  let x = add x 0x9E3779B97F4A7C15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

(* A uniform draw in [0, 1) keyed by the integer tuple [key]; the same key
   always yields the same draw, on any platform. *)
let draw key =
  let h =
    List.fold_left
      (fun acc k -> mix64 (Int64.logxor acc (Int64.of_int k)))
      0x5CA1A9AL key
  in
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

(* --- armed faults: one concrete run at one scale --- *)

type armed = {
  kills : (int * float) list;  (* rank, kill time *)
  skews : (int * float) list;  (* rank, factor *)
  poisons : (int list option * poison_kind * float) list;
  a_seed : int;
  a_nprocs : int;
  a_attempt : int;
}

let none =
  { kills = []; skews = []; poisons = []; a_seed = 0; a_nprocs = 0; a_attempt = 1 }

let is_none t = t.kills = [] && t.skews = [] && t.poisons = []

let arm t ~nprocs ~attempt =
  let kills = ref [] and skews = ref [] and poisons = ref [] in
  List.iteri
    (fun idx fault ->
      match fault with
      | Kill_rank { rank; after; prob } ->
          if
            rank < nprocs
            && draw [ t.seed; attempt; nprocs; rank; idx; 1 ] < prob
          then kills := (rank, after) :: !kills
      | Clock_skew { rank; factor } ->
          if rank < nprocs then skews := (rank, factor) :: !skews
      | Poison_metric { ranks; kind; prob } ->
          poisons := (ranks, kind, prob) :: !poisons
      | Drop_scale _ -> ())
    t.faults;
  {
    kills = List.rev !kills;
    skews = List.rev !skews;
    poisons = List.rev !poisons;
    a_seed = t.seed;
    a_nprocs = nprocs;
    a_attempt = attempt;
  }

let kill_time t ~rank =
  List.fold_left
    (fun acc (r, after) ->
      if r <> rank then acc
      else
        match acc with
        | None -> Some after
        | Some a -> Some (Float.min a after))
    None t.kills

let comp_scale t ~rank =
  List.fold_left
    (fun acc (r, factor) -> if r = rank then acc *. factor else acc)
    1.0 t.skews

let poison t ~rank ~vertex =
  List.fold_left
    (fun acc (idx, (ranks, kind, prob)) ->
      match acc with
      | Some _ -> acc
      | None ->
          let rank_matches =
            match ranks with None -> true | Some rs -> List.mem rank rs
          in
          if
            rank_matches
            && draw [ t.a_seed; t.a_attempt; t.a_nprocs; rank; vertex; idx; 2 ]
               < prob
          then Some kind
          else None)
    None
    (List.mapi (fun i p -> (i, p)) t.poisons)

(* --- artifact-layer damage (disk faults, deterministic by design) --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* Cut the file to its first [at_byte] bytes — a filled disk / dead writer. *)
let truncate_file path ~at_byte =
  let contents = read_file path in
  let keep = min (max 0 at_byte) (String.length contents) in
  write_file path (String.sub contents 0 keep)

(* XOR one byte — a bit flip in storage. *)
let corrupt_byte path ~at_byte ?(xor = 0x40) () =
  let contents = read_file path in
  if at_byte < 0 || at_byte >= String.length contents then
    invalid_arg "Faults.corrupt_byte: offset outside the file";
  let b = Bytes.of_string contents in
  Bytes.set b at_byte (Char.chr (Char.code (Bytes.get b at_byte) lxor (xor land 0xff)));
  write_file path (Bytes.to_string b)
