(* join-mru: the paper's Figure 6 nested-loop join past MSize.  A pinned
   inner table, and an outer table larger than the 40 MB HiPEC container
   that manages it with MRU, scanned once per inner tuple.  Every outer
   fault past the first scan runs the policy executor and picks the MRU
   victim from the ~10k-page active queue.  Read-only: no pageout
   daemon work, no auditor.

   The reference stream is the join's own scan order, so the seed moves
   only the kernel's seed (the disk's rotational draws): the simulated
   elapsed time changes with it, the host work does not. *)

open Hipec_sim
open Hipec_machine
open Hipec_vm
open Hipec_core
open Hipec_workloads

(* 50 MB outer, 512-byte inner of 64-byte tuples: 8 scans.  Two thirds
   of the faults pick a victim, so the fault p50 is a victim scan. *)
let config = { Join.default_config with Join.outer_mb = 50; inner_bytes = 512 }

let memory_pages c = c.Join.memory_mb * 1024 * 1024 / Frame.page_size

let setup ?(config = config) ~seed probe =
  let c = config in
  let n_pages = Join.outer_pages c in
  let stream = Array.init (Join.loops c * n_pages) (fun i -> i mod n_pages) in
  let kconfig =
    { Kernel.default_config with total_frames = c.Join.total_frames; seed; hipec_kernel = true }
  in
  let kernel = Kernel.create ~config:kconfig () in
  let task = Kernel.create_task kernel ~name:"join" () in
  let inner_pages = max 1 (c.Join.inner_bytes / Frame.page_size) in
  let inner = Kernel.vm_map_file kernel task ~name:"inner-table" ~npages:inner_pages () in
  Kernel.wire_region kernel task inner;
  let sys = Api.init kernel in
  let m = Instance.machine ~sys kernel in
  let spec = Api.default_spec ~policy:(Policies.mru ()) ~min_frames:(memory_pages c) in
  let outer =
    Instance.install m probe (fun () ->
        Api.vm_map_hipec sys task ~name:"outer-table" ~npages:n_pages spec)
  in
  let per_page = Sim_time.mul c.Join.per_tuple_cost (Frame.page_size / c.Join.tuple_bytes) in
  let timed probe =
    match outer with
    | None -> Probe.fail probe "join-mru: the outer table was not installed"
    | Some (region, _) ->
        let base = region.Vm_map.start_vpn in
        Array.iter
          (fun page ->
            Probe.access probe kernel task ~vpn:(base + page) ~write:false;
            Kernel.charge kernel per_page)
          stream;
        Probe.call probe Probe.Drain (fun () -> Kernel.drain_io kernel)
  in
  let check d =
    let want = Join.predicted_faults `Mru c in
    if d.Instance.faults <> want then
      [ Printf.sprintf "faults %d <> Join.predicted_faults `Mru %d" d.Instance.faults want ]
    else []
  in
  { Instance.m; timed; check }

(* The library's own join at the same seed and config must agree with
   the driver on faults, page-ins and simulated elapsed time.  Runs the
   library's join now; the result checks the driver's counters. *)
let cross_check ?(config = config) ~seed =
  let r = Join.run ~seed Join.Hipec_mru config in
  let elapsed = Sim_time.to_ns r.Join.elapsed in
  fun d ->
  List.filter_map
    (fun (what, lib, ours) ->
      if lib = ours then None
      else Some (Printf.sprintf "Join.run %s %d <> driver %d" what lib ours))
    [
      ("faults", r.Join.faults, d.Instance.faults);
      ("pageins", r.Join.pageins, d.Instance.pageins);
      ("elapsed_ns", elapsed, d.Instance.sim_ns);
    ]
