(** Kernel page queues (free / active / inactive / user-defined).

    Doubly linked through each page's own intrusive links, with an
    enforced exclusivity invariant: a page is on at most one queue at a
    time.  These queues are both the kernel's own paging queues and the
    values behind HiPEC's [Queue] operands ([EnQueue], [DeQueue],
    [EmptyQ], [InQ], [FIFO], [LRU], [MRU] all operate on them).

    {b Cost.}  Every operation below is O(1) and allocation-free except
    where its comment says otherwise ([dequeue_*] and [peek_*] allocate
    only the [Some] they return).

    {b Recency index.}  A queue builds a recency index the first time
    {!oldest} or {!newest} is asked of it, in O(n log n) (one stable
    sort), and keeps it from then on: its pages, doubly linked in
    ascending [(last_access, position)] order, where position ascends
    from head to tail.  FIFO and second-chance queues, and the kernel's
    own queues, are never asked and never pay for it.  On an indexed
    queue, [enqueue_*] and {!Vm_page.touch} insert the page by walking
    back from the newest end: the walk visits the queued pages that
    sort after it.  Simulated time is monotone, so for a page the
    kernel just touched those are at most the pages touched at the same
    instant.  Removal unlinks in O(1). *)

type t

val create : string -> t
(** [create name] is a fresh empty queue; [name] appears in errors and
    debug output. *)

val id : t -> int
(** Unique queue id (the value stored in {!Vm_page.on_queue}). *)

val name : t -> string
val length : t -> int
val is_empty : t -> bool

val enqueue_head : t -> Vm_page.t -> unit
val enqueue_tail : t -> Vm_page.t -> unit
(** Raise [Invalid_argument] if the page is already on some queue.  On
    an indexed queue, add the index insertion walk (see above). *)

val dequeue_head : t -> Vm_page.t option
val dequeue_tail : t -> Vm_page.t option

val peek_head : t -> Vm_page.t option
val peek_tail : t -> Vm_page.t option

val remove : t -> Vm_page.t -> unit
(** Remove a specific page.  Raises [Invalid_argument] if the page is
    not on this queue. *)

val mem : t -> Vm_page.t -> bool
(** Reads the page's own queue id. *)

val iter : (Vm_page.t -> unit) -> t -> unit
(** Head-to-tail order, O(n).  The callback must not mutate the
    queue. *)

val fold : ('a -> Vm_page.t -> 'a) -> 'a -> t -> 'a
val to_list : t -> Vm_page.t list
(** Head first; O(n). *)

(** {1 Victim selection} *)

val oldest : t -> Vm_page.t option
(** The least recently accessed page ({!Vm_page.last_access}); ties go
    to the page nearest the head.  The LRU complex command's victim.
    O(1) once the recency index exists; the first call builds it. *)

val newest : t -> Vm_page.t option
(** The most recently accessed page, ties again to the page nearest the
    head.  The MRU complex command's victim.  O(r) once the index
    exists, for the r pages sharing the greatest access time (1 unless
    several pages were touched at the same instant). *)

val find_oldest : t -> Vm_page.t option
val find_newest : t -> Vm_page.t option
(** The reference linear scans, O(n): same answers as {!oldest} and
    {!newest}, page for page, without building an index.  The oracle
    for the index in tests. *)

val check_invariants : t -> bool
(** O(n).  Links are consistent, the length matches, every member's
    [on_queue] points here and positions ascend from head to tail.  On
    an indexed queue, the index holds exactly the queue's pages in
    strictly ascending [(last_access, position)] order with consistent
    back links.  For tests, the auditor and debug assertions. *)
