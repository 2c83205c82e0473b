open Hipec_sim
open Hipec_vm

type access = Hipec_trace.Oracle.access = { page : int; write : bool }

let sequential ~npages ~write = Array.init npages (fun page -> { page; write })

let cyclic ~npages ~loops ~write =
  Array.init (npages * loops) (fun i -> { page = i mod npages; write })

let reverse_cyclic ~npages ~loops ~write =
  Array.init (npages * loops) (fun i -> { page = npages - 1 - (i mod npages); write })

let strided ~npages ~stride ~count ~write =
  if stride <= 0 then invalid_arg "Access_trace.strided: stride <= 0";
  Array.init count (fun i -> { page = i * stride mod npages; write })

let uniform_random rng ~npages ~count ~write_ratio =
  Array.init count (fun _ ->
      { page = Rng.int rng npages; write = Rng.float rng 1.0 < write_ratio })

(* Zipf via the rejection-free inverse-power method over ranks;
   popularity of rank k ~ 1/k^theta. *)
let zipf rng ~npages ~count ~theta ~write_ratio =
  if theta < 0. then invalid_arg "Access_trace.zipf: negative theta";
  let weights = Array.init npages (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let cumulative = Array.make npages 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cumulative.(i) <- !acc /. total)
    weights;
  let draw () =
    let u = Rng.float rng 1.0 in
    (* binary search for the first cumulative >= u *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cumulative.(mid) >= u then search lo mid else search (mid + 1) hi
    in
    search 0 (npages - 1)
  in
  Array.init count (fun _ -> { page = draw (); write = Rng.float rng 1.0 < write_ratio })

let working_set_phases rng ~npages ~phases ~phase_len ~ws_pages =
  if ws_pages > npages then invalid_arg "Access_trace.working_set_phases: ws > npages";
  let out = Array.make (phases * phase_len) { page = 0; write = false } in
  for p = 0 to phases - 1 do
    let base = Rng.int rng (npages - ws_pages + 1) in
    for i = 0 to phase_len - 1 do
      out.((p * phase_len) + i) <-
        { page = base + Rng.int rng ws_pages; write = Rng.bool rng }
    done
  done;
  out

let record kernel task region f =
  let out = ref [] in
  let last = ref None in
  let tid = Task.id task in
  Kernel.set_access_recorder kernel
    (Some
       (fun t ~vpn ~write ->
         if
           Task.id t = tid
           && vpn >= region.Vm_map.start_vpn
           && vpn < Vm_map.region_end_vpn region
         then begin
           let page = vpn - region.Vm_map.start_vpn in
           match !last with
           | Some (p, w) when p = page && w = write -> ()
           | _ ->
               last := Some (page, write);
               out := { page; write } :: !out
         end));
  let result =
    Fun.protect ~finally:(fun () -> Kernel.set_access_recorder kernel None) f
  in
  (result, Array.of_list (List.rev !out))

let replay kernel task region trace =
  let npages = region.Vm_map.npages in
  Array.iter
    (fun { page; write } ->
      if page < 0 || page >= npages then
        invalid_arg "Access_trace.replay: access outside region";
      Kernel.access_vpn kernel task ~vpn:(region.Vm_map.start_vpn + page) ~write)
    trace

let faults_during kernel task region trace =
  let before = Task.faults task in
  replay kernel task region trace;
  Task.faults task - before
