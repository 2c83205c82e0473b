(** A library of ready-made HiPEC policies over the standard operand
    layout ({!Operand.Std}).

    Every policy defines the two mandatory events.  The convention
    completing the paper's event ABI: when a fault resolves, the kernel
    binds the slot the [PageFault] event returned and enqueues the now
    resident page at the tail of the [Std.active_queue]; replacement
    policies pick victims from that queue. *)

val fifo_second_chance : unit -> Program.t
(** The paper's Table 2 / Figure 4 program: FIFO with a second chance,
    written with the simple commands ([Comp]/[DeQueue]/[Ref]/[Mod]/
    [Flush]/[EnQueue]/[Jump]) and a user event 2 ([Lack_free_frame]),
    exactly as the paper lists it. *)

val lack_free_frame_event : int
(** 2 — the user event number the second-chance program activates. *)

val simple : [ `Fifo | `Lru | `Mru ] -> Program.t
(** One-complex-command policies: on fault, take a free slot if one
    exists, otherwise run the [FIFO]/[LRU]/[MRU] complex command on the
    active queue and take the slot it frees. *)

val fifo : unit -> Program.t
val lru : unit -> Program.t
val mru : unit -> Program.t
(** [simple] at each flavour. *)

val clock : unit -> Program.t
(** True CLOCK, written with the simple commands: rotate the active
    queue, giving referenced pages a second chance (reset + move to the
    tail) until an unreferenced victim turns up.  Distinct from
    {!fifo_second_chance}, which stages pages through an inactive
    queue. *)

val adaptive : unit -> Program.t
(** Adaptive FIFO/LRU switcher with an observed-reuse latch.  While the
    score is below the threshold, each [PageFault] sweeps the whole
    active queue (order-preserving, clearing every reference bit); a
    set bit on any page but the newest — whose bit is only the
    fault-resolution install artifact — is a genuine hit since the
    previous fault and bumps the saturating score.  The score never
    decays, so reaching the threshold latches the policy: [FIFO]
    eviction before, the [LRU] complex command (a stack algorithm,
    immune to Belady's anomaly) forever after, with the sweep skipped.
    Requires the {!adaptive_operands} user operands in
    [Api.spec.extra_operands]. *)

val adaptive_score : int
(** [Operand.Std.first_user] (0x10) — the saturating reuse score. *)

val adaptive_threshold : int
(** 0x11 — score at which eviction latches from FIFO to LRU. *)

val adaptive_cap : int
(** 0x12 — saturation ceiling for the score. *)

val default_adaptive_threshold : int
(** 1 — latch into LRU on the first observed reuse. *)

val default_adaptive_cap : int
(** 4 *)

val adaptive_operands :
  ?threshold:int -> ?cap:int -> unit -> (int * Operand.value) list
(** Fresh user-operand bindings for {!adaptive} — score starts at 0.
    Build a new list per install: the refs are the policy's state. *)

val greedy_request : flavour:[ `Fifo | `Lru | `Mru ] -> chunk:int -> Program.t
(** Like {!simple}, but before evicting it first tries to [Request]
    [chunk] more frames from the global frame manager, falling back to
    replacement when rejected — the paper's recommended pattern for
    handling allocation failure. *)

val std_reclaim : Program.Asm.item list
(** The standard [ReclaimFrame] handler every policy above uses:
    release free slots up to [Std.reclaim_target], evicting (FIFO,
    inactive then active queue) when the free list runs short. *)

val looping : unit -> Program.t
(** A pathological policy whose [PageFault] spins forever — used to
    exercise the executor step budget and the security checker. *)

val returns_garbage : unit -> Program.t
(** A policy whose [PageFault] returns an integer instead of a page —
    exercises the kill-on-bad-policy path. *)

(** {2 Policies by name} *)

val builtin_names : string list
(** ["fifo"; "lru"; "mru"; "clock"; "second-chance"; "adaptive";
    "greedy"; "looping"; "returns-garbage"] — [greedy] is
    [greedy_request ~flavour:`Fifo ~chunk:4]. *)

val builtin : string -> (Program.t * (int * Operand.value) list) option
(** The program named by one of {!builtin_names} with the user operands
    its spec must declare ([extra_operands]; only [adaptive] has any).
    Every call builds a fresh program and fresh operand refs. *)
