(** Resident pages: the kernel's view of one physical frame's contents.

    Following Mach, a [Vm_page.t] exists only while it holds a physical
    frame.  It is either {e bound} to an offset of a VM object (it caches
    that page of the object) or {e unbound} (a free page slot whose frame
    is ready for reuse — this is what sits on free queues, including the
    private free lists HiPEC hands to applications).

    {b Compare pages with [==] only.}  A page carries the intrusive
    links of the queue holding it (and of that queue's recency index),
    so a page is a cyclic value: structural [=], [<>], [compare],
    [Hashtbl.hash]-keyed tables and anything built on them ([List.mem],
    [List.assoc], [Alcotest] checks on pages) may not terminate when
    they reach a page.  Compare {!id}s, or use physical equality. *)

open Hipec_sim
open Hipec_machine

type t

val create : frame:Frame.t -> t
(** A fresh unbound page slot holding [frame]. *)

val id : t -> int
(** Unique for the lifetime of the process. *)

val frame : t -> Frame.t

(** {1 Binding to an object offset} *)

val binding : t -> (int * int) option
(** [(object_id, page_offset)] when bound. *)

val bind : t -> object_id:int -> offset:int -> unit
(** Raises [Invalid_argument] if already bound. *)

val unbind : t -> unit
(** Raises [Invalid_argument] if not bound.  The caller (normally
    {!Vm_object.disconnect}) is responsible for removing the page from
    the object's resident table and from all pmaps first. *)

val is_bound : t -> bool

(** {1 Mappings} *)

val mappings : t -> (Pmap.t * int) list
(** pmaps (with virtual page numbers) currently translating to this
    page's frame. *)

val add_mapping : t -> Pmap.t -> vpn:int -> unit
val remove_mapping : t -> Pmap.t -> vpn:int -> unit

val unmap_all : t -> unit
(** Remove every translation to this page from every pmap. *)

(** {1 State bits} *)

val dirty : t -> bool
(** The frame's hardware modify bit. *)

val referenced : t -> bool
val clear_modified : t -> unit
val clear_referenced : t -> unit
val wired : t -> bool
val set_wired : t -> bool -> unit

val last_access : t -> Sim_time.t
val touch : t -> Sim_time.t -> unit
(** Record an access time (kernel-visible approximation used by the LRU
    and MRU complex commands).  A page on a queue with a recency index
    is re-linked in that index; see {!index_insert} for the cost.  Any
    other page pays one branch. *)

(** {1 Queue membership (maintained by {!Page_queue})} *)

val on_queue : t -> int option
(** Id of the queue currently holding the page, if any. *)

val set_on_queue : t -> int option -> unit
(** For {!Page_queue}'s internal use only. *)

(** {1 Intrusive links (for {!Page_queue}'s internal use only)}

    Each page carries the prev/next links of the queue holding it, its
    position [seq] on that queue (ascending from head to tail), and
    older/newer links in the queue's recency index when the queue has
    one.  Every link ends in {!nil}. *)

val nil : t
(** The shared sentinel for "no page".  Never bound, never on a queue,
    never handed out by a queue operation. *)

val prev : t -> t
val next : t -> t
val set_prev : t -> t -> unit
val set_next : t -> t -> unit
val seq : t -> int
val set_seq : t -> int -> unit

type index
(** A recency index: the pages of one queue doubly linked in ascending
    [(last_access, seq)] order. *)

val create_index : unit -> index

val index_first : index -> t
(** The page sorting first (oldest access, nearest the head on ties);
    {!nil} when the index is empty. *)

val index_last : index -> t
(** The page sorting last; {!nil} when empty. *)

val older : t -> t
val newer : t -> t
(** Neighbours in the page's index; {!nil} at the ends. *)

val in_index : t -> index -> bool

val precedes : t -> t -> bool
(** [precedes a b]: [a] sorts before [b] in a recency index, by an
    earlier last access, or by an earlier [seq] at equal access. *)

val index_insert : index -> t -> unit
(** Link the page in order, walking back from the newest end.  O(k) for
    the k indexed pages that sort after it.  For a page touched at the
    current simulated time, which is monotone, those are at most the
    pages last touched at that same instant.  The page must not be in
    an index already. *)

val index_remove : t -> unit
(** Unlink the page from its index in O(1); a no-op when it is in
    none. *)

val pp : Format.formatter -> t -> unit
