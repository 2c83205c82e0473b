(* paging-mix: the shape of Figure 5's AIM memory-heavy mix.  A few
   default-pool tasks, each with an anonymous and a file-backed region,
   and a few HiPEC tenants running FIFO with second chance, all making
   seeded, skewed references whose total footprint exceeds memory.  A
   fixed share of references write.  Tasks are interleaved round-robin
   with a CPU charge per reference, and the default-pool tasks also
   issue explicit asynchronous disk transfers, so disk completions land
   between references.  Hit-heavy: it loads the access path, the
   pageout daemon's second chance, dirty laundering and the async disk
   queue.  No MRU/LRU victim scans, no auditor. *)

open Hipec_sim
open Hipec_machine
open Hipec_vm
open Hipec_core

let total_frames = 4_096
let default_tasks = 4
let anon_pages = 700
let file_pages = 500
let tenants = 3
let tenant_pages = 600
let tenant_min_frames = 256
let rounds = 150_000
let hot_fraction = 0.15
let hot_share = 0.9
let write_share = 0.3
let io_every = 50
let io_blocks = 8
let data_blocks = 65_536
let cpu_per_ref = Sim_time.us 5

(* The hit ratio this mix was designed for; outside it, the workload
   no longer measures what it claims to. *)
let hit_band = (0.90, 0.98)

let ntasks = default_tasks + tenants

(* An op packs (argument, kind, task): kind 0 read, 1 write, 2 async
   disk read, 3 async disk write; the argument is a page offset into the
   task's pages or a block offset into the data area. *)
let op ~task ~kind ~arg = (arg lsl 5) lor (kind lsl 3) lor task
let op_task o = o land 7
let op_kind o = (o lsr 3) land 3
let op_arg o = o lsr 5

let pages_of_task i = if i < default_tasks then anon_pages + file_pages else tenant_pages

let generate ~seed =
  let rng = Random.State.make [| seed; 0x9a61 |] in
  let hot =
    Array.init ntasks (fun i ->
        let n = pages_of_task i in
        let perm = Array.init n Fun.id in
        for k = n - 1 downto 1 do
          let j = Random.State.int rng (k + 1) in
          let x = perm.(k) in
          perm.(k) <- perm.(j);
          perm.(j) <- x
        done;
        Array.sub perm 0 (max 1 (int_of_float (hot_fraction *. float_of_int n))))
  in
  let stream = Array.make (rounds * ntasks) 0 in
  for r = 0 to rounds - 1 do
    for task = 0 to ntasks - 1 do
      let o =
        if task < default_tasks && (r + task) mod io_every = 0 then
          let kind = if Random.State.bool rng then 2 else 3 in
          op ~task ~kind ~arg:(Random.State.int rng (data_blocks - io_blocks))
        else
          let h = hot.(task) in
          let page =
            if Random.State.float rng 1.0 < hot_share then
              h.(Random.State.int rng (Array.length h))
            else Random.State.int rng (pages_of_task task)
          in
          let kind = if Random.State.float rng 1.0 < write_share then 1 else 0 in
          op ~task ~kind ~arg:page
      in
      stream.((r * ntasks) + task) <- o
    done
  done;
  stream

let setup ~seed probe =
  let stream = generate ~seed in
  let kconfig = { Kernel.default_config with total_frames; seed; hipec_kernel = true } in
  let kernel = Kernel.create ~config:kconfig () in
  let sys = Api.init kernel in
  let m = Instance.machine ~sys kernel in
  let data_base = Kernel.alloc_disk_extent kernel ~npages:(data_blocks / 8) in
  (* per task: its task, and the vpn of each of its pages *)
  let tasks = Array.make ntasks None in
  for i = 0 to default_tasks - 1 do
    let task = Kernel.create_task kernel ~name:(Printf.sprintf "mix-%d" i) () in
    let anon = Kernel.vm_allocate kernel task ~npages:anon_pages in
    let file =
      Kernel.vm_map_file kernel task ~name:(Printf.sprintf "mix-%d.dat" i) ~npages:file_pages ()
    in
    let vpn p =
      if p < anon_pages then anon.Vm_map.start_vpn + p
      else file.Vm_map.start_vpn + (p - anon_pages)
    in
    tasks.(i) <- Some (task, Array.init (anon_pages + file_pages) vpn)
  done;
  for i = default_tasks to ntasks - 1 do
    let task = Kernel.create_task kernel ~name:(Printf.sprintf "tenant-%d" i) () in
    let spec =
      Api.default_spec ~policy:(Policies.fifo_second_chance ()) ~min_frames:tenant_min_frames
    in
    match
      Instance.install m probe (fun () ->
          Api.vm_allocate_hipec sys task ~npages:tenant_pages spec)
    with
    | Some (region, _) ->
        tasks.(i) <- Some (task, Array.init tenant_pages (fun p -> region.Vm_map.start_vpn + p))
    | None -> ()
  done;
  let io_submitted = ref 0 and io_completed = ref 0 and io_failed = ref 0 in
  let on_io _ = function Ok () -> incr io_completed | Error _ -> incr io_failed in
  let disk = Kernel.disk kernel in
  let timed probe =
    Array.iter
      (fun o ->
        match tasks.(op_task o) with
        | None -> ()
        | Some (task, vpns) -> (
            match op_kind o with
            | (0 | 1) as kind ->
                Probe.access probe kernel task ~vpn:vpns.(op_arg o) ~write:(kind = 1);
                Kernel.charge kernel cpu_per_ref
            | kind ->
                incr io_submitted;
                let block = data_base + op_arg o in
                if kind = 2 then Disk.submit_read disk ~block ~nblocks:io_blocks on_io
                else Disk.submit_write disk ~block ~nblocks:io_blocks on_io))
      stream;
    Probe.call probe Probe.Drain (fun () -> Kernel.drain_io kernel)
  in
  let refs = Array.fold_left (fun n o -> if op_kind o < 2 then n + 1 else n) 0 stream in
  let check d =
    let lo, hi = hit_band in
    let hit_ratio = 1. -. (float_of_int d.Instance.faults /. float_of_int refs) in
    List.concat
      [
        (if m.Instance.admitted <> tenants then
           [ Printf.sprintf "%d of %d tenants installed" m.Instance.admitted tenants ]
         else []);
        (if d.Instance.disk_writes > 0 then [] else [ "no disk writes" ]);
        (if hit_ratio >= lo && hit_ratio <= hi then []
         else [ Printf.sprintf "hit ratio %.4f outside [%.2f, %.2f]" hit_ratio lo hi ]);
        (if !io_completed + !io_failed = !io_submitted then []
         else
           [ Printf.sprintf "%d async transfers submitted, %d completed" !io_submitted
               (!io_completed + !io_failed) ]);
        (if Frame.Table.check_conservation (Kernel.frame_table kernel) then []
         else [ "frame conservation broken" ]);
      ]
  in
  { Instance.m; timed; check }
