(** Interconnect model: latency/bandwidth point-to-point transfers with an
    eager/rendezvous switch, and log-P collective cost shapes. *)

type t = {
  latency : float;  (** seconds per message *)
  bandwidth : float;  (** bytes per second *)
  eager_threshold : int;  (** bytes; larger messages use rendezvous *)
  send_overhead : float;  (** local CPU seconds to post a send *)
  recv_overhead : float;  (** local CPU seconds to complete a receive *)
}

val default : t

(** End-to-end transfer time of one message. *)
val transfer_time : t -> int -> float

(** [add_transfer_time t bytes a i] adds [transfer_time t bytes] to
    [a.(i)], the same float operations as [a.(i) +. transfer_time t
    bytes] with no float boxed on the way. *)
val add_transfer_time : t -> int -> float array -> int -> unit

val is_eager : t -> int -> bool
val log2_ceil : int -> int

(** Cost of a collective once all ranks arrived. Raises
    [Invalid_argument] for point-to-point operations. *)
val collective_time :
  t -> nprocs:int -> bytes:int -> Scalana_mlang.Ast.mpi_call -> float
