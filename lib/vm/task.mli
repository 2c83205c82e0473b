(** Tasks: an address space plus the fault and pagein counts the
    workloads read, the unit the kernel schedules and (when a HiPEC
    policy misbehaves) terminates. *)

open Hipec_machine

type t

val create : ?name:string -> unit -> t
val id : t -> int
val name : t -> string
val pmap : t -> Pmap.t
val vm_map : t -> Vm_map.t

val alive : t -> bool
val kill : t -> reason:string -> unit

(** {1 Accounting} *)

val faults : t -> int
val count_fault : t -> unit
val pageins : t -> int
val count_pagein : t -> unit

val pp : Format.formatter -> t -> unit
