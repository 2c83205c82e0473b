(** Memory-pressure severity for the overload-protection layer.

    Derives a four-step severity ladder from the two signals the kernel
    already has on its fault path: the free-frame count measured against
    the pageout daemon's watermarks, and the fault-arrival rate over a
    sliding window of simulated time.  The ladder drives pageout urgency
    (bigger reclaim batches, more aggressive laundering), admission
    shedding in the HiPEC frame manager, and — at [Emergency] — kernel-
    directed frame seizure that bypasses (but traces) tenant policies.

    The controller is entirely deterministic: severity is a pure
    function of the simulated clock, the fault counter and the frame
    counts, so traced runs digest identically across repetitions.

    Nothing here runs unless {!Kernel.enable_pressure} installs a
    controller — an un-engaged kernel behaves (and traces) exactly as it
    did before this module existed. *)

open Hipec_sim

type level = Normal | Elevated | Critical | Emergency

val severity : level -> int
(** 0..3, the wire encoding used by trace events and metrics gauges. *)

val level_name : level -> string

type t

val create : ?window:Sim_time.t -> ?rate_threshold:float -> unit -> t
(** [window] (default 10 ms of simulated time) is the fault-rate
    measurement interval; a completed window whose fault arrival rate
    meets [rate_threshold] (faults per simulated second, default
    [infinity] = watermark-only) escalates the watermark-derived level
    by one step. *)

val note_fault : t -> now:Sim_time.t -> unit
(** Count one page fault toward the current rate window. *)

val evaluate : t -> free:int -> free_target:int -> reserved:int -> now:Sim_time.t -> level
(** Recompute the level: [free <= reserved] is [Emergency],
    [free <= free_target/2] is [Critical], [free < free_target] is
    [Elevated], plus the rate escalation.  Escalations apply
    immediately; recovery steps down one level per evaluation
    (hysteresis), so a single good sample cannot flap the system back
    to [Normal].  Fires the {!subscribe} listeners on a change. *)

val level : t -> level
(** The last evaluated level ([Normal] before the first evaluation). *)

val changes : t -> int
(** Level transitions observed so far. *)

val window_faults : t -> int
(** Faults counted in the current (incomplete) window. *)

val subscribe : t -> (prev:level -> next:level -> unit) -> unit
(** Register a listener for level transitions, called inside
    {!evaluate} after the level is updated, in subscription order.
    The kernel subscribes its own urgency/trace/metrics hook first;
    the HiPEC frame manager subscribes its emergency-seizure and
    admission-queue hooks after. *)
