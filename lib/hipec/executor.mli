(** The application-specific policy executor (paper §4.3.2).

    Invoked by the page-fault handler or the global frame manager, it
    fetches commands from the policy buffer, decodes them and performs
    the operations — entirely in kernel context, so the only cost is
    ~50 ns of fetch+decode per command (see {!Hipec_machine.Costs}).

    Every command word is decoded on every fetch, exactly as the
    paper's in-kernel interpreter does: this module is the one policy
    engine.

    On entry it stamps the container with the current time; the security
    checker polls that stamp to detect runaway policies.  Execution is
    additionally step-bounded: a policy that exceeds the budget is
    suspended with {!Timed_out} and left stamped for the checker to
    kill. *)

open Hipec_sim
open Hipec_machine
open Hipec_vm

(** Kernel services the executor's privileged commands call into
    (implemented by {!Frame_manager}). *)
type services = {
  request_frames : Container.t -> int -> bool;
      (** [Request]: grant [n] frames onto the container's free queue,
          or reject *)
  release_count : Container.t -> count:int -> int;
      (** [Release $int]: give back up to [count] free slots; returns
          how many actually went back *)
  release_page : Container.t -> Vm_page.t -> (unit, string) result;
      (** [Release $page]: give back one specific (unbound) slot *)
  flush_page : Container.t -> Vm_page.t -> (unit, string) result;
      (** [Flush]: asynchronous writeback; clears the modify bit
          immediately (the manager owns the disk I/O) *)
  resolve_object : int -> Vm_object.t;
}

type outcome =
  | Returned of Operand.value option
      (** the [Return] command's operand (empty slot = [None]) *)
  | Runtime_error of string
      (** ill-typed operand, empty dequeue, undefined event, ... — the
          kernel terminates the application *)
  | Timed_out
      (** step budget exhausted; container left stamped for the checker *)

type t

val create :
  ?max_steps:int ->
  ?max_activation_depth:int ->
  engine:Engine.t ->
  costs:Costs.t ->
  services:services ->
  unit ->
  t
(** Defaults: 100_000 steps, depth 16. *)

val run : t -> Container.t -> event:int -> outcome
(** Execute the container's handler for [event].  Charges
    [hipec_dispatch] once plus [hipec_fetch_decode] per command. *)

val commands_executed : t -> int
(** Total across all runs (instrumentation). *)

val max_steps : t -> int
(** The per-run step budget; the frame manager's
    fuel ledger derives its default windowed quota from it. *)
