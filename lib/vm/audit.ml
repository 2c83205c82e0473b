open Hipec_sim
open Hipec_machine

let log = Logs.Src.create "hipec.audit" ~doc:"kernel auditor"

module Log = (val Logs.src_log log : Logs.LOG)

type violation = { check : string; detail : string }

let pp_violation fmt v = Format.fprintf fmt "%s: %s" v.check v.detail

exception Violation of violation list

type t = {
  kernel : Kernel.t;
  period : Sim_time.t;
  raise_on_violation : bool;
  mutable extra_queues : Page_queue.t list;
  mutable extra_checks : (string * (unit -> (string * string) list)) list;
  mutable running : bool;
  mutable pending : Engine.handle option;
  mutable sweeps : int;
  mutable violations_found : int;
}

let create ?(period = Sim_time.ms 500) ?(raise_on_violation = true) kernel =
  {
    kernel;
    period;
    raise_on_violation;
    extra_queues = [];
    extra_checks = [];
    running = false;
    pending = None;
    sweeps = 0;
    violations_found = 0;
  }

let register_queue t q =
  if not (List.exists (fun q' -> Page_queue.id q' = Page_queue.id q) t.extra_queues) then
    t.extra_queues <- t.extra_queues @ [ q ]

let unregister_queue t q =
  t.extra_queues <-
    List.filter (fun q' -> Page_queue.id q' <> Page_queue.id q) t.extra_queues

(* Layered invariants: the VM auditor cannot see HiPEC containers (the
   dependency points the other way), so the hipec layer registers a
   closure that re-derives its own invariants — e.g. "a throttled
   container still owns its minimum frames" — and reports violations
   naming the offending container. *)
let register_check t ~name f =
  if not (List.mem_assoc name t.extra_checks) then
    t.extra_checks <- t.extra_checks @ [ (name, f) ]

(* One full consistency sweep.  Checks, in order:
   - the frame table's free-list conservation;
   - every audited queue's link invariants and each member's [on_queue];
   - every object's resident table: bindings point back at (object,
     offset), no resident page sits on a free frame, and no frame backs
     two pages (aliasing also covers unbound slots parked on audited
     queues);
   - every live task's pmap: translations target allocated frames and
     agree with the resident page at that address. *)
let sweep t =
  let k = t.kernel in
  let out = ref [] in
  let add check detail = out := { check; detail } :: !out in
  let tbl = Kernel.frame_table k in
  if not (Frame.Table.check_conservation tbl) then
    add "frame-conservation" "frame table free list is inconsistent";
  (* queues *)
  let queues = Pageout.queues (Kernel.pageout k) @ t.extra_queues in
  let seen : (int, string) Hashtbl.t = Hashtbl.create 512 in
  let claim ~frame ~owner =
    let ix = Frame.index frame in
    match Hashtbl.find_opt seen ix with
    | Some other ->
        add "frame-aliasing"
          (Printf.sprintf "frame %d backs both %s and %s" ix other owner)
    | None -> Hashtbl.replace seen ix owner
  in
  List.iter
    (fun q ->
      if not (Page_queue.check_invariants q) then
        add "queue-invariants" (Printf.sprintf "queue %s links broken" (Page_queue.name q));
      Page_queue.iter
        (fun page ->
          (match Vm_page.on_queue page with
          | Some id when id = Page_queue.id q -> ()
          | Some _ | None ->
              add "queue-membership"
                (Printf.sprintf "page on queue %s whose on_queue disagrees"
                   (Page_queue.name q)));
          if Frame.is_free (Vm_page.frame page) then
            add "free-frame-on-queue"
              (Printf.sprintf "queue %s holds a page whose frame %d is in the free pool"
                 (Page_queue.name q)
                 (Frame.index (Vm_page.frame page)));
          (* unbound slots claim their frame here; bound pages are
             claimed below through their object's resident table *)
          if not (Vm_page.is_bound page) then
            claim ~frame:(Vm_page.frame page)
              ~owner:(Printf.sprintf "a free slot on queue %s" (Page_queue.name q)))
        q)
    queues;
  (* objects *)
  Kernel.iter_objects k (fun obj ->
      Vm_object.iter_resident
        (fun ~offset page ->
          (match Vm_page.binding page with
          | Some (oid, off) when oid = Vm_object.id obj && off = offset -> ()
          | Some _ | None ->
              add "binding"
                (Printf.sprintf "resident page of %s offset %d has a foreign binding"
                   (Vm_object.name obj) offset));
          if Frame.is_free (Vm_page.frame page) then
            add "resident-free-frame"
              (Printf.sprintf "%s offset %d is resident on free frame %d"
                 (Vm_object.name obj) offset
                 (Frame.index (Vm_page.frame page)));
          claim ~frame:(Vm_page.frame page)
            ~owner:(Printf.sprintf "%s offset %d" (Vm_object.name obj) offset))
        obj);
  (* pmaps *)
  List.iter
    (fun task ->
      if Task.alive task then
        Pmap.iter (Task.pmap task) (fun ~vpn ~frame ~prot:_ ->
            if Frame.is_free frame then
              add "pmap-free-frame"
                (Printf.sprintf "%s maps vpn %d to free frame %d" (Task.name task) vpn
                   (Frame.index frame));
            match Vm_map.find (Task.vm_map task) ~vpn with
            | None ->
                add "pmap-unmapped-vpn"
                  (Printf.sprintf "%s maps vpn %d outside every region" (Task.name task)
                     vpn)
            | Some region -> (
                let offset = Vm_map.offset_of_vpn region vpn in
                match Vm_object.find_resident region.Vm_map.obj ~offset with
                | None ->
                    add "pmap-stale"
                      (Printf.sprintf "%s vpn %d translated but no page is resident"
                         (Task.name task) vpn)
                | Some page ->
                    if Frame.index (Vm_page.frame page) <> Frame.index frame then
                      add "pmap-wrong-frame"
                        (Printf.sprintf "%s vpn %d maps frame %d but the page is on %d"
                           (Task.name task) vpn (Frame.index frame)
                           (Frame.index (Vm_page.frame page))))))
    (Kernel.tasks k);
  (* registered external checks (HiPEC isolation invariants) *)
  List.iter
    (fun (_, f) -> List.iter (fun (check, detail) -> add check detail) (f ()))
    t.extra_checks;
  let violations = List.rev !out in
  t.sweeps <- t.sweeps + 1;
  t.violations_found <- t.violations_found + List.length violations;
  if violations <> [] then begin
    List.iter (fun v -> Log.err (fun m -> m "audit: %a" pp_violation v)) violations;
    if t.raise_on_violation then raise (Violation violations)
  end;
  violations

let rec arm t =
  if t.running then
    t.pending <-
      Some
        (Engine.schedule (Kernel.engine t.kernel) ~daemon:true ~after:t.period (fun _ ->
             ignore (sweep t);
             arm t))

let start t =
  if not t.running then begin
    t.running <- true;
    arm t
  end

let stop t =
  t.running <- false;
  match t.pending with
  | Some h ->
      Engine.cancel (Kernel.engine t.kernel) h;
      t.pending <- None
  | None -> ()

let sweeps t = t.sweeps
let violations_found t = t.violations_found
