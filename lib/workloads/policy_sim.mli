(** Offline (trace-driven) replacement simulation and policy advice.

    FIFO, LRU, MRU and CLOCK fault counts come from the pure reference
    models in {!Hipec_trace.Oracle} — the same models the differential
    suite pins the real executor to, so a count here is the count the
    kernel running the matching {!Hipec_core.Policies} program produces.
    Belady's optimal (OPT), the yardstick no online policy can beat, is
    simulated here.  Used to advise which HiPEC policy fits a trace
    (what the paper expects the specific-application designer to
    know). *)

type policy = Fifo | Lru | Mru | Clock | Opt

val policy_name : policy -> string
val all_policies : policy list

val faults : policy -> frames:int -> Access_trace.access array -> int
(** Cold-start fault count for the trace.  Raises [Invalid_argument]
    when [frames <= 0]. *)

val sweep : frames:int -> Access_trace.access array -> (policy * int) list
(** Every policy on one trace, best (fewest faults) first. *)

val advise : frames:int -> Access_trace.access array -> policy
(** The best {e online} policy for the trace (never [Opt]). *)
