open Hipec_sim
open Hipec_machine
open Hipec_vm
open Hipec_core

type kernel_kind = Mach | Hipec

let kernel_kind_name = function Mach -> "Mach 3.0 Kernel" | Hipec -> "HiPEC mechanism"

type table3_row = {
  kind : kernel_kind;
  with_disk_io : bool;
  pages : int;
  elapsed : Sim_time.t;
  faults : int;
}

(* Feed [spans] the events [f] emits: through the caller's trace
   collector when one is installed (as [Storm.run] shares it), else
   through a private one stopped afterwards. *)
let feeding_spans spans kernel f =
  match spans with
  | None -> f ()
  | Some b ->
      let module Tr = Hipec_trace.Trace in
      let own = Option.is_none (Tr.active ()) in
      if own then ignore (Tr.start ~clock:(fun () -> Kernel.now kernel) ());
      Tr.set_consumer (Some (Hipec_trace.Span.feed b));
      Fun.protect
        ~finally:(fun () -> if own then ignore (Tr.stop ()) else Tr.set_consumer None)
        f

(* Fault [pages] pages once.  Without disk I/O the region is anonymous
   zero-fill; with disk I/O it is a mapped file so every fault reads a
   page from the simulated disk — exactly the two halves of Table 3. *)
let table3_run ?(pages = 10_240) ?(seed = 1) ?spans kind ~with_disk_io =
  let hipec = kind = Hipec in
  let config =
    { Kernel.default_config with total_frames = 16_384; seed; hipec_kernel = hipec }
  in
  let kernel = Kernel.create ~config () in
  let task = Kernel.create_task kernel ~name:"table3" () in
  let region =
    if hipec then begin
      let sys = Api.init kernel in
      (* the same FIFO-with-second-chance policy the Mach kernel runs,
         with private management of the whole 40 MB (paper §5.1) *)
      let spec =
        Api.default_spec ~policy:(Policies.fifo_second_chance ())
          ~min_frames:(pages + 64)
      in
      let result =
        if with_disk_io then Api.vm_map_hipec sys task ~name:"data" ~npages:pages spec
        else Api.vm_allocate_hipec sys task ~npages:pages spec
      in
      match result with
      | Ok (region, _) -> region
      | Error e -> failwith ("Driver.table3: " ^ e)
    end
    else if with_disk_io then Kernel.vm_map_file kernel task ~name:"data" ~npages:pages ()
    else Kernel.vm_allocate kernel task ~npages:pages
  in
  let faults0 = Task.faults task in
  let t0 = Kernel.now kernel in
  feeding_spans spans kernel (fun () ->
      Kernel.touch_region kernel task region ~write:false);
  let elapsed = Sim_time.sub (Kernel.now kernel) t0 in
  Kernel.drain_io kernel;
  { kind; with_disk_io; pages; elapsed; faults = Task.faults task - faults0 }

let overhead_percent ~baseline ~subject =
  let b = Sim_time.to_ns baseline.elapsed and s = Sim_time.to_ns subject.elapsed in
  (float_of_int s -. float_of_int b) /. float_of_int b *. 100.

type table4_row = {
  null_syscall : Sim_time.t;
  null_ipc : Sim_time.t;
  hipec_fast_path : Sim_time.t;
  fast_path_commands : int;
}

let table4_run () =
  let kernel = Kernel.create () in
  let measure f =
    let t0 = Kernel.now kernel in
    f ();
    Sim_time.sub (Kernel.now kernel) t0
  in
  let null_syscall = measure (fun () -> Kernel.null_syscall kernel) in
  let null_ipc = measure (fun () -> Kernel.null_ipc kernel) in
  (* The fast path: PageFault with a free slot available interprets
     exactly Comp, DeQueue, Return.  Run it for real and account the
     fetch+decode time the way the paper does. *)
  let hconfig = { Kernel.default_config with hipec_kernel = true } in
  let hkernel = Kernel.create ~config:hconfig () in
  let sys = Api.init hkernel in
  let task = Kernel.create_task hkernel () in
  match
    Api.vm_allocate_hipec sys task ~npages:16
      (Api.default_spec ~policy:(Policies.fifo_second_chance ()) ~min_frames:32)
  with
  | Error e -> failwith ("Driver.table4: " ^ e)
  | Ok (region, container) ->
      let commands0 = Container.commands_interpreted container in
      Kernel.access_vpn hkernel task ~vpn:region.Vm_map.start_vpn ~write:false;
      let fast_path_commands = Container.commands_interpreted container - commands0 in
      let costs = Kernel.costs hkernel in
      {
        null_syscall;
        null_ipc;
        hipec_fast_path =
          Sim_time.mul costs.Costs.hipec_fetch_decode fast_path_commands;
        fast_path_commands;
      }
