(* One set-up workload, ready for its timed phase, and the layer
   counters the benchmark reads from the libraries' public accessors. *)

open Hipec_machine
open Hipec_vm
open Hipec_core

type machine = {
  kernel : Kernel.t;
  sys : Api.t option;
  mutable containers : Container.t list;  (** every container installed *)
  mutable admitted : int;
  mutable shed : int;
  auditor : Audit.t option;
}

type counters = {
  faults : int;
  hipec_faults : int;
  pagein_faults : int;
  zero_fill_faults : int;
  pageins : int;  (** summed over every task *)
  evictions : int;
  reactivations : int;
  pageout_writes : int;
  sync_reads : int;
  async_reads : int;
  disk_writes : int;
  disk_busy_ns : int;
  io_retries : int;
  requests_granted : int;
  requests_rejected : int;
  throttles : int;
  seizures : int;
  demotions : int;
  commands : int;
  events_run : int;
  sweeps : int;
  violations : int;
  sim_ns : int;
}

type t = {
  m : machine;
  timed : Probe.t -> unit;  (** every reference, then the final drain *)
  check : counters -> string list;  (** output checks on the timed phase *)
}

let machine ?sys ?auditor kernel =
  { kernel; sys; containers = []; admitted = 0; shed = 0; auditor }

(* A region-and-policy install, timed as an [Install] span; a refused
   install counts as shed. *)
let install t probe f =
  match Probe.call probe Probe.Install f with
  | Ok (region, container) ->
      t.admitted <- t.admitted + 1;
      t.containers <- container :: t.containers;
      Some (region, container)
  | Error _ ->
      t.shed <- t.shed + 1;
      None

let counters (t : machine) =
  let k = Kernel.stats t.kernel in
  let disk = Kernel.disk t.kernel in
  let po = Kernel.pageout t.kernel in
  let io = Kernel.io_stats t.kernel in
  let fm = Option.map (fun sys -> Frame_manager.stats (Api.manager sys)) t.sys in
  let fm_get f = match fm with Some s -> f s | None -> 0 in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 t.containers in
  let audit f = match t.auditor with Some a -> f a | None -> 0 in
  {
    faults = k.Kernel.faults;
    hipec_faults = k.Kernel.hipec_faults;
    pagein_faults = k.Kernel.pagein_faults;
    zero_fill_faults = k.Kernel.zero_fill_faults;
    pageins = List.fold_left (fun acc task -> acc + Task.pageins task) 0 (Kernel.tasks t.kernel);
    evictions = Pageout.evictions po;
    reactivations = Pageout.reactivations po;
    pageout_writes = Pageout.pageout_writes po;
    sync_reads = Disk.synchronous_transfers disk;
    async_reads = Disk.reads_completed disk;
    disk_writes = Disk.writes_completed disk;
    disk_busy_ns = Hipec_sim.Sim_time.to_ns (Disk.busy_time disk);
    io_retries = io.Io_retry.io_retries;
    requests_granted = fm_get (fun s -> s.Frame_manager.requests_granted);
    requests_rejected = fm_get (fun s -> s.Frame_manager.requests_rejected);
    throttles = fm_get (fun s -> s.Frame_manager.throttles_entered);
    seizures = fm_get (fun s -> s.Frame_manager.emergency_seizures);
    demotions = fm_get (fun s -> s.Frame_manager.demotions);
    commands = sum Container.commands_interpreted;
    events_run = sum Container.events_run;
    sweeps = audit Audit.sweeps;
    violations = audit Audit.violations_found;
    sim_ns = Hipec_sim.Sim_time.to_ns (Kernel.now t.kernel);
  }

let diff a b =
  {
    faults = b.faults - a.faults;
    hipec_faults = b.hipec_faults - a.hipec_faults;
    pagein_faults = b.pagein_faults - a.pagein_faults;
    zero_fill_faults = b.zero_fill_faults - a.zero_fill_faults;
    pageins = b.pageins - a.pageins;
    evictions = b.evictions - a.evictions;
    reactivations = b.reactivations - a.reactivations;
    pageout_writes = b.pageout_writes - a.pageout_writes;
    sync_reads = b.sync_reads - a.sync_reads;
    async_reads = b.async_reads - a.async_reads;
    disk_writes = b.disk_writes - a.disk_writes;
    disk_busy_ns = b.disk_busy_ns - a.disk_busy_ns;
    io_retries = b.io_retries - a.io_retries;
    requests_granted = b.requests_granted - a.requests_granted;
    requests_rejected = b.requests_rejected - a.requests_rejected;
    throttles = b.throttles - a.throttles;
    seizures = b.seizures - a.seizures;
    demotions = b.demotions - a.demotions;
    commands = b.commands - a.commands;
    events_run = b.events_run - a.events_run;
    sweeps = b.sweeps - a.sweeps;
    violations = b.violations - a.violations;
    sim_ns = b.sim_ns - a.sim_ns;
  }

(* The simulated fingerprint of a timed phase: its counter deltas, the
   admission outcome and the final simulated clock.  Host timing plays
   no part, so equal seeds give equal fingerprints. *)
let fingerprint (t : machine) d =
  Printf.sprintf
    "faults=%d hipec=%d pagein=%d zerofill=%d pageins=%d evict=%d react=%d pgout=%d sync=%d \
     async=%d writes=%d busy=%d retries=%d granted=%d rejected=%d throttles=%d \
     seizures=%d demotions=%d commands=%d events=%d sweeps=%d violations=%d \
     admitted=%d shed=%d now=%d"
    d.faults d.hipec_faults d.pagein_faults d.zero_fill_faults d.pageins d.evictions d.reactivations
    d.pageout_writes d.sync_reads d.async_reads d.disk_writes d.disk_busy_ns d.io_retries
    d.requests_granted d.requests_rejected d.throttles d.seizures d.demotions d.commands
    d.events_run d.sweeps d.violations t.admitted t.shed
    (Hipec_sim.Sim_time.to_ns (Kernel.now t.kernel))
