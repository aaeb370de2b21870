(* Interconnect model.

   Point-to-point transfers follow a latency/bandwidth (Hockney) model
   with an eager/rendezvous switch; collectives use the standard
   log-P tree / dissemination cost shapes.  The absolute constants are
   InfiniBand-class, matching the paper's Gorgon testbed flavor. *)

type t = {
  latency : float;  (* seconds, per message *)
  bandwidth : float;  (* bytes per second *)
  eager_threshold : int;  (* bytes; above this, rendezvous protocol *)
  send_overhead : float;  (* local CPU seconds to post a send *)
  recv_overhead : float;  (* local CPU seconds to complete a receive *)
}

let default =
  {
    latency = 1.5e-6;
    bandwidth = 10e9;
    eager_threshold = 64 * 1024;
    send_overhead = 0.3e-6;
    recv_overhead = 0.3e-6;
  }

(* Bytes are clamped with an int comparison: a polymorphic [max] is a C
   call, and this runs once per message. *)
let[@inline] transfer_time t (bytes : int) =
  t.latency +. (float_of_int (if bytes > 0 then bytes else 0) /. t.bandwidth)

(* The engine's form: a float returned across modules is boxed (dune's
   dev profile compiles with [-opaque]), one stored into the caller's
   array is not. *)
let add_transfer_time t bytes (a : float array) i =
  a.(i) <- a.(i) +. transfer_time t bytes

let is_eager t bytes = bytes <= t.eager_threshold

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  if n <= 1 then 0 else go 0 1

(* Cost of a collective once all ranks have arrived. *)
let collective_time t ~(nprocs : int) ~(bytes : int) kind =
  let lg = float_of_int (log2_ceil nprocs) in
  let peers = nprocs - 1 in
  let n = float_of_int (if peers > 1 then peers else 1) in
  let b = float_of_int (if bytes > 0 then bytes else 0) in
  match (kind : Scalana_mlang.Ast.mpi_call) with
  | Barrier -> lg *. t.latency
  | Bcast _ | Reduce _ -> lg *. (t.latency +. (b /. t.bandwidth))
  | Allreduce _ -> 2.0 *. lg *. (t.latency +. (b /. t.bandwidth))
  | Allgather _ -> (lg *. t.latency) +. (n *. b /. t.bandwidth)
  | Alltoall _ -> n *. (t.latency +. (b /. t.bandwidth))
  | Send _ | Recv _ | Isend _ | Irecv _ | Wait _ | Waitall _ | Sendrecv _ ->
      invalid_arg "Network.collective_time: not a collective"
