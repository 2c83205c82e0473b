(** Drivers for the paper's measurement experiments (§5.1).

    Table 3 measures the time to fault in 40 MB of virtual address
    space, with and without disk I/O, on the unmodified kernel and
    under HiPEC running the identical FIFO-with-second-chance policy.
    Table 4 compares the mechanism costs: null system call, null IPC,
    and HiPEC's fetch+decode fast path. *)

open Hipec_sim

type kernel_kind = Mach | Hipec

val kernel_kind_name : kernel_kind -> string

type table3_row = {
  kind : kernel_kind;
  with_disk_io : bool;
  pages : int;
  elapsed : Sim_time.t;
  faults : int;
}

val table3_run :
  ?pages:int ->
  ?seed:int ->
  ?spans:Hipec_trace.Span.builder ->
  kernel_kind ->
  with_disk_io:bool ->
  table3_row
(** Default 10240 pages = 40 MB, as in the paper.  [spans] is fed the
    events of the timed touch only, so it holds one span per counted
    fault ([faults] of them) and none for the set-up; it shares an
    installed trace collector (replacing, then clearing, its consumer)
    or else runs on a private one.  The per-fault view behind Table 3's
    totals is {!Hipec_trace.Span.Agg} over those spans. *)

val overhead_percent : baseline:table3_row -> subject:table3_row -> float

type table4_row = {
  null_syscall : Sim_time.t;
  null_ipc : Sim_time.t;
  hipec_fast_path : Sim_time.t;
      (** fetch+decode time of the 3-command PageFault fast path
          (Comp, DeQueue, Return) *)
  fast_path_commands : int;
}

val table4_run : unit -> table4_row
