(* Fault/delay injection.

   The paper's motivating example (Fig. 2) manually injects a delay into
   one process of NPB-CG; this module reproduces that and supports the
   ablation tests: a rule adds wall time (and optionally busy cycles) when
   a given rank executes a given source location. *)

open Scalana_mlang

type rule = {
  ranks : int list option;  (* None = every rank *)
  loc : Loc.t option;  (* None = any Comp statement *)
  seconds : float;
  every : int;  (* apply on every n-th execution of the site; 1 = always *)
}

type t = { rules : rule list; counters : (int * int, int) Hashtbl.t }

let empty = { rules = []; counters = Hashtbl.create 1 }

(* A non-finite or negative delay would stall or rewind the clock
   (monotone per-rank clocks are what samplers and the timeline rely
   on), and [every] is a modulus. *)
let delay ?ranks ?loc ?(every = 1) seconds =
  if not (Float.is_finite seconds && seconds >= 0.0) then
    Fmt.invalid_arg "Inject.delay: %g seconds must be finite and >= 0" seconds;
  if every < 1 then Fmt.invalid_arg "Inject.delay: every=%d must be >= 1" every;
  { ranks; loc; seconds; every }

let create rules = { rules; counters = Hashtbl.create 64 }

let rule_applies rule ~rank ~loc =
  (match rule.ranks with None -> true | Some rs -> List.mem rank rs)
  && match rule.loc with None -> true | Some l -> Loc.equal l loc

(* Extra seconds to charge when [rank] executes the statement at [loc].
   Stateful: honours [every]. *)
let extra t ~rank ~loc =
  let rule_index = ref (-1) in
  List.fold_left
    (fun acc rule ->
      incr rule_index;
      if rule_applies rule ~rank ~loc then begin
        let key = (rank, !rule_index) in
        let n = (try Hashtbl.find t.counters key with Not_found -> 0) + 1 in
        Hashtbl.replace t.counters key n;
        if n mod rule.every = 0 then acc +. rule.seconds else acc
      end
      else acc)
    0.0 t.rules

let is_empty t = t.rules = []
