(** Memory access trace generators and replay.

    A trace is a sequence of page-granularity references relative to a
    region's start; replaying one against a kernel exercises the fault
    path exactly as an application's access pattern would. *)

open Hipec_sim
open Hipec_vm

type access = Hipec_trace.Oracle.access = { page : int; write : bool }
(** The reference models' access type, so a generated or recorded trace
    feeds {!Hipec_trace.Oracle} and {!Policy_sim} directly. *)

val sequential : npages:int -> write:bool -> access array
(** One pass, page 0 .. npages-1. *)

val cyclic : npages:int -> loops:int -> write:bool -> access array
(** [loops] sequential passes — the nested-loop join's outer pattern. *)

val reverse_cyclic : npages:int -> loops:int -> write:bool -> access array

val strided : npages:int -> stride:int -> count:int -> write:bool -> access array
(** Page [i*stride mod npages] for i = 0..count-1. *)

val uniform_random : Rng.t -> npages:int -> count:int -> write_ratio:float -> access array

val zipf : Rng.t -> npages:int -> count:int -> theta:float -> write_ratio:float ->
  access array
(** Zipf-distributed popularity (theta ~0.99 = heavily skewed), the
    classic database buffer-pool pattern. *)

val working_set_phases :
  Rng.t -> npages:int -> phases:int -> phase_len:int -> ws_pages:int -> access array
(** Program phase behaviour: each phase draws uniformly from a random
    window of [ws_pages] pages. *)

val replay : Kernel.t -> Task.t -> Vm_map.region -> access array -> unit
(** Issue every access through {!Kernel.access_vpn}.  Raises
    [Invalid_argument] if an access lies outside the region. *)

val faults_during : Kernel.t -> Task.t -> Vm_map.region -> access array -> int
(** Replay and return the fault-count delta. *)
