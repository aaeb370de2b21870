(* Minimal binary min-heap on (float priority, int payload), used by the
   scheduler to pick the runnable process with the smallest local clock.

   The tie order among equal keys is emergent from the array layout that
   this exact push/pop algorithm produces, and the simulator's
   deterministic semantics (wildcard matching order, last-arrival ranks)
   are defined in terms of it — treat the sift procedures as a frozen
   contract, not an implementation detail. *)

type t = {
  mutable keys : float array;
  mutable vals : int array;
  mutable size : int;
}

let create ?(capacity = 16) () =
  let capacity = max 1 capacity in
  { keys = Array.make capacity 0.0; vals = Array.make capacity 0; size = 0 }

let grow t =
  if t.size = Array.length t.keys then begin
    let n = 2 * t.size in
    let keys = Array.make n 0.0 and vals = Array.make n 0 in
    Array.blit t.keys 0 keys 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    t.keys <- keys;
    t.vals <- vals
  end

let swap t i j =
  let k = t.keys.(i) and v = t.vals.(i) in
  t.keys.(i) <- t.keys.(j);
  t.vals.(i) <- t.vals.(j);
  t.keys.(j) <- k;
  t.vals.(j) <- v

(* The key is read here, from the caller's array: a float passed to a
   function of another module would be boxed. *)
let push t keys value =
  grow t;
  let i = ref t.size in
  t.keys.(!i) <- keys.(value);
  t.vals.(!i) <- value;
  t.size <- t.size + 1;
  while !i > 0 && t.keys.((!i - 1) / 2) > t.keys.(!i) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let sift_down t =
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && t.keys.(l) < t.keys.(!smallest) then smallest := l;
    if r < t.size && t.keys.(r) < t.keys.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      swap t !i !smallest;
      i := !smallest
    end
    else continue_ := false
  done

(* Non-allocating pop for the scheduler hot loop: the payload of the
   minimum entry, or -1 when empty. *)
let pop_val t =
  if t.size = 0 then -1
  else begin
    let value = t.vals.(0) in
    t.size <- t.size - 1;
    t.keys.(0) <- t.keys.(t.size);
    t.vals.(0) <- t.vals.(t.size);
    sift_down t;
    value
  end
