(* An in-process stack sampler: SIGPROF fires on consumed CPU time, the
   handler takes the OCaml call stack, and each sample is charged to the
   layer of the innermost frame from the repo.  Stdlib frames (List,
   Hashtbl, Printf) are skipped, so their time goes to the repo caller
   that asked for the work.  Inlined frames are skipped too: the time is
   charged to the compiled function the code was inlined into. *)

let depth = 96
let samples : Printexc.raw_backtrace list ref = ref []
let active = ref false

let handler (_ : int) = if !active then samples := Printexc.get_callstack depth :: !samples

let this_file = "perfbench/sampler.ml"

let layer_of_slots slots =
  let n = Array.length slots in
  let rec go i =
    if i >= n then Layers.Other
    else
      let slot = slots.(i) in
      if Printexc.Slot.is_inline slot then go (i + 1)
      else
        match Printexc.Slot.location slot with
        | None -> go (i + 1)
        | Some loc when loc.Printexc.filename = this_file -> go (i + 1)
        | Some loc -> (
            match Layers.of_file loc.Printexc.filename with
            | Some layer -> layer
            | None -> go (i + 1))
  in
  go 0

let layer_of_backtrace bt =
  match Printexc.backtrace_slots bt with
  | None -> Layers.Other
  | Some slots -> layer_of_slots slots

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = interval; it_value = interval })

(* Asks for 1 kHz; the kernel tick may deliver fewer. *)
let start () =
  samples := [];
  Sys.set_signal Sys.sigprof (Sys.Signal_handle handler);
  active := true;
  set_timer 0.001

(* Stop sampling and return the number of samples per layer, indexed by
   [Layers.index]. *)
let stop () =
  active := false;
  set_timer 0.;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  let by_layer = Array.make (List.length Layers.all) 0 in
  List.iter
    (fun bt ->
      let i = Layers.index (layer_of_backtrace bt) in
      by_layer.(i) <- by_layer.(i) + 1)
    !samples;
  samples := [];
  by_layer
