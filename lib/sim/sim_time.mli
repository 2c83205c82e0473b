(** Virtual time for the discrete-event simulation.

    Time is an integer count of nanoseconds since simulation start.  A
     63-bit [int] holds about 292 simulated years, far beyond any
    experiment in this repository. *)

type t = private int

val zero : t

(** {1 Constructors} *)

val ns : int -> t
(** [ns n] is [n] nanoseconds.  Raises [Invalid_argument] if [n < 0]. *)

val us : int -> t
val ms : int -> t
val sec : int -> t

val of_us_f : float -> t
(** [of_us_f x] rounds [x] microseconds to the nearest nanosecond. *)

val of_ms_f : float -> t
val of_sec_f : float -> t

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [a - b].  Raises [Invalid_argument] if the result would
    be negative. *)

val diff : t -> t -> t
(** [diff a b] is [abs (a - b)]. *)

val mul : t -> int -> t
val div : t -> int -> t
val max : t -> t -> t
val min : t -> t -> t

(** {1 Comparisons} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

(** {1 Destructors} *)

val to_ns : t -> int
val to_us_f : t -> float
val to_ms_f : t -> float
val to_sec_f : t -> float
val to_min_f : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)
