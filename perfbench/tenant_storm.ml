(* tenant-storm: several hundred HiPEC tenants on an overloaded machine
   with overload protection on and disk fault injection.  Most tenants
   are honest (FIFO with second chance), one in ten is greedy and one in
   twenty errs (its policy loops until the step budget demotes it).  A
   default-pool writer runs between the early and the late admission
   wave, then again at the start of each later round; rounds alternate
   reads and writes.  The benchmark itself sweeps the kernel auditor at
   a fixed simulated period, with the frame manager's isolation check
   registered; sweeps charge no simulated time, so this matches the
   auditor daemon.  The only workload whose set-up is mostly policy
   installs, and the only one that throttles, seizes and retries I/O.

   The late admission wave lands after the writer's first pass, so its
   installs fall inside the timed phase. *)

open Hipec_sim
open Hipec_machine
open Hipec_vm
open Hipec_core

let tenants = 300
let late_tenants = 60
let pages_per_tenant = 16
let min_frames = 8
let total_frames = 4_096
let hog_pages = 6_144
let rounds = 2
let audit_period = Sim_time.ms 250
let max_steps = 2_000

type kind = Honest | Greedy | Erring

let kind_of i =
  if i mod 20 = 7 then Erring else if i mod 10 = 3 then Greedy else Honest

let kind_name = function Honest -> "honest" | Greedy -> "greedy" | Erring -> "erring"

let policy_for = function
  | Honest -> Policies.fifo_second_chance ()
  | Greedy -> Policies.greedy_request ~flavour:`Fifo ~chunk:32
  | Erring -> Policies.looping ()

let permutation rng n =
  let a = Array.init n Fun.id in
  for k = n - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let x = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- x
  done;
  a

type tenant = {
  kind : kind;
  task : Task.t;
  pages : int array;  (** the order this tenant visits its pages in *)
  mutable base : int option;  (** region start; [None] until admitted, or if shed *)
}

let setup ~seed probe =
  (* the reference stream: a visiting order of tenants per round and of
     pages per tenant *)
  let rng = Random.State.make [| seed; 0x5707 |] in
  let order = Array.init rounds (fun _ -> permutation rng tenants) in
  let page_orders = Array.init tenants (fun _ -> permutation rng pages_per_tenant) in
  let kconfig = { Kernel.default_config with total_frames; seed; hipec_kernel = true } in
  let kernel = Kernel.create ~config:kconfig () in
  let sys = Api.init ~max_steps kernel in
  Api.enable_overload ~rate_threshold:infinity ~fuel_quota:200 ~fuel_window:(Sim_time.ms 10)
    ~fuel_cooldown:(Sim_time.ms 50) sys;
  let auditor = Audit.create ~period:audit_period ~raise_on_violation:false kernel in
  Audit.register_check auditor ~name:"hipec-isolation"
    (Frame_manager.audit_check (Api.manager sys));
  let m = Instance.machine ~sys ~auditor kernel in
  (* bad blocks land in the swap slots laundering will write *)
  let probe_block = Kernel.alloc_disk_extent kernel ~npages:1 in
  Disk.set_faults (Kernel.disk kernel)
    {
      Disk.Faults.seed = seed + 1;
      transient_read_rate = 0.005;
      transient_write_rate = 0.005;
      latency_spike_rate = 0.002;
      latency_spike = Sim_time.ms 20;
      bad_blocks = List.init 2 (fun i -> probe_block + (Vm_object.blocks_per_page * (i + 1)));
    };
  let ts =
    Array.init tenants (fun i ->
        let kind = kind_of i in
        let task =
          Kernel.create_task kernel ~name:(Printf.sprintf "t%04d-%s" i (kind_name kind)) ()
        in
        { kind; task; pages = page_orders.(i); base = None })
  in
  let admit i =
    let tn = ts.(i) in
    let spec = Api.default_spec ~policy:(policy_for tn.kind) ~min_frames in
    match
      Instance.install m probe (fun () ->
          Api.vm_allocate_hipec sys tn.task ~npages:pages_per_tenant spec)
    with
    | Some (region, container) ->
        Audit.register_queue auditor (Container.free_queue container);
        Audit.register_queue auditor (Container.active_queue container);
        Audit.register_queue auditor (Container.inactive_queue container);
        tn.base <- Some region.Vm_map.start_vpn
    | None -> ()
  in
  for i = 0 to tenants - late_tenants - 1 do
    admit i
  done;
  let hog = Kernel.create_task kernel ~name:"hog" () in
  let hog_region = Kernel.vm_allocate kernel hog ~npages:hog_pages in
  let next_sweep = ref (Sim_time.add (Kernel.now kernel) audit_period) in
  let sweep probe = Probe.call probe Probe.Audit_sweep (fun () -> ignore (Audit.sweep auditor)) in
  let maybe_sweep probe =
    let now = Kernel.now kernel in
    if Sim_time.(now >= !next_sweep) then begin
      sweep probe;
      while Sim_time.(now >= !next_sweep) do
        next_sweep := Sim_time.add !next_sweep audit_period
      done
    end
  in
  let hog_pass probe ~write =
    for p = 0 to hog_pages - 1 do
      Probe.access probe kernel hog ~vpn:(hog_region.Vm_map.start_vpn + p) ~write;
      maybe_sweep probe
    done
  in
  let timed probe =
    hog_pass probe ~write:true;
    for i = tenants - late_tenants to tenants - 1 do
      admit i
    done;
    for round = 0 to rounds - 1 do
      if round > 0 then hog_pass probe ~write:false;
      let write = round land 1 = 1 in
      for j = 0 to pages_per_tenant - 1 do
        Array.iter
          (fun i ->
            let tn = ts.(i) in
            match tn.base with
            | Some base when Task.alive tn.task ->
                Probe.access probe ~may_die:(tn.kind = Erring) kernel tn.task
                  ~vpn:(base + tn.pages.(j)) ~write;
                maybe_sweep probe
            | _ -> ())
          order.(round)
      done
    done;
    Probe.call probe Probe.Drain (fun () -> Kernel.drain_io kernel);
    sweep probe
  in
  let check d =
    let honest_dead =
      Array.fold_left
        (fun n tn ->
          if tn.kind = Honest && tn.base <> None && not (Task.alive tn.task) then n + 1 else n)
        0 ts
    in
    List.concat
      [
        (if d.Instance.violations = 0 then []
         else [ Printf.sprintf "%d audit violations" d.Instance.violations ]);
        (if m.Instance.admitted > 0 then [] else [ "no tenant admitted" ]);
        (if honest_dead = 0 then [] else [ Printf.sprintf "%d honest tenants killed" honest_dead ]);
        (if Frame.Table.check_conservation (Kernel.frame_table kernel) then []
         else [ "frame conservation broken" ]);
      ]
  in
  { Instance.m; timed; check }
