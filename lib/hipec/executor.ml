open Hipec_sim
open Hipec_machine
open Hipec_vm

type services = {
  request_frames : Container.t -> int -> bool;
  release_count : Container.t -> count:int -> int;
  release_page : Container.t -> Vm_page.t -> (unit, string) result;
  flush_page : Container.t -> Vm_page.t -> (unit, string) result;
  resolve_object : int -> Vm_object.t;
}

type outcome = Returned of Operand.value option | Runtime_error of string | Timed_out

type t = {
  max_steps : int;
  max_activation_depth : int;
  engine : Engine.t;
  costs : Costs.t;
  services : services;
  mutable counter : int;  (* commands executed across all runs *)
}

let create ?(max_steps = 100_000) ?(max_activation_depth = 16) ~engine ~costs ~services () =
  { max_steps; max_activation_depth; engine; costs; services; counter = 0 }

let commands_executed t = t.counter
let max_steps t = t.max_steps

(* Internal execution result: a value, an error, or budget exhaustion. *)
type exec = Value of Operand.value option | Err of string | Tout

let ( let* ) r k = match r with Ok v -> k v | Error e -> Err e

module Mx = Hipec_metrics.Metrics

let interpret t container ~event ~prof =
  let ops = Container.operands container in
  let free_q = Container.free_queue container in
  let charge d = Engine.advance t.engine d in
  let steps = ref 0 in
  Container.start_execution container ~at:(Engine.now t.engine);
  charge t.costs.Costs.hipec_dispatch;

  (* [Flush], and the implicit launder when a dirty bound page moves to
     the free queue: asynchronous writeback owned by the manager. *)
  let flush page =
    if Vm_page.dirty page then t.services.flush_page container page else Ok ()
  in
  (* A bound page entering the free queue stops caching its object page:
     launder if dirty, drop translations, unbind. *)
  let make_free_slot page =
    if not (Vm_page.is_bound page) then Ok ()
    else begin
      (if Hipec_trace.Trace.on () then
         match Vm_page.binding page with
         | Some (oid, offset) ->
             Hipec_trace.Trace.evict ~source:Hipec_trace.Event.Policy ~obj:oid
               ~offset ~dirty:(Vm_page.dirty page)
         | None -> ());
      Result.bind (flush page) (fun () ->
          let oid =
            match Vm_page.binding page with Some (o, _) -> o | None -> assert false
          in
          match t.services.resolve_object oid with
          | obj ->
              Vm_object.disconnect obj page;
              Ok ()
          | exception Not_found -> Error (Printf.sprintf "unknown object %d" oid))
    end
  in

  let read_page ix =
    Result.bind (Operand.read_page_slot ops ix) (fun slot ->
        match !slot with
        | Some page -> Ok page
        | None -> Error (Printf.sprintf "operand %d: empty page register" ix))
  in

  (* Evict one page from [q] chosen by [select]; it becomes a free slot
     on the container's free queue and lands in the page register. *)
  let complex_replace q select =
    charge t.costs.Costs.hipec_complex_command;
    charge t.costs.Costs.queue_op;
    match select q with
    | None -> Ok false
    | Some victim ->
        Page_queue.remove q victim;
        Result.bind (make_free_slot victim) (fun () ->
            Page_queue.enqueue_tail free_q victim;
            Result.bind (Operand.read_page_slot ops Operand.Std.page_reg) (fun reg ->
                reg := Some victim;
                Ok true))
  in

  let rec exec_event event depth =
    if depth > t.max_activation_depth then
      Err (Printf.sprintf "activation depth exceeds %d" t.max_activation_depth)
    else
      match Program.code (Container.program container) ~event with
      | None -> Err (Printf.sprintf "undefined event %s" (Events.name event))
      | Some code ->
          Container.count_event_run container;
          let len = Array.length code in
          let rec step cc =
            if cc < 0 || cc >= len then
              Err (Printf.sprintf "%s: control ran past CC %d" (Events.name event) cc)
            else begin
              let instr = code.(cc) in
              (* Profiler boundary: the interval since the previous
                 fetch is attributed to the previously fetched opcode. *)
              (match prof with
              | None -> ()
              | Some pr ->
                  Mx.profile_step pr
                    ~opcode:(Opcode.code (Instr.opcode instr))
                    ~sim_ns:(Sim_time.to_ns (Engine.now t.engine)));
              incr steps;
              t.counter <- t.counter + 1;
              Container.count_commands container 1;
              charge t.costs.Costs.hipec_fetch_decode;
              if !steps > t.max_steps then Tout
              else begin
                (* Skip-next semantics (paper Table 2): a test command
                   that evaluates TRUE skips the immediately following
                   command — by convention the else-branch Jump — so the
                   fast path never fetches it.  Static validation
                   guarantees every test is followed by a Jump. *)
                let set_cond b = if b then step (cc + 2) else step (cc + 1) in
                let next () = step (cc + 1) in
                match instr with
                | Instr.Return ix -> Value (Operand.get ops ix)
                | Instr.Jump target -> step target
                | Instr.Arith (a, b, op) ->
                    let* va = Operand.read_int ops a in
                    let* vb =
                      match op with
                      | Opcode.Arith_op.Inc | Opcode.Arith_op.Dec -> Ok 0
                      | _ -> Operand.read_int ops b
                    in
                    let* result = Opcode.Arith_op.apply op va vb in
                    let* () = Operand.write_int ops a result in
                    next ()
                | Instr.Comp (a, b, op) ->
                    let* va = Operand.read_int ops a in
                    let* vb = Operand.read_int ops b in
                    set_cond (Opcode.Comp_op.apply op va vb)
                | Instr.Logic (a, b, op) ->
                    let* va = Operand.read_bool ops a in
                    let* vb =
                      match op with
                      | Opcode.Logic_op.Not -> Ok false
                      | _ -> Operand.read_bool ops b
                    in
                    let result = Opcode.Logic_op.apply op va vb in
                    let* () = Operand.write_bool ops a result in
                    set_cond result
                | Instr.Emptyq q ->
                    let* queue = Operand.read_queue ops q in
                    charge t.costs.Costs.queue_op;
                    set_cond (Page_queue.is_empty queue)
                | Instr.Inq (q, p) ->
                    let* queue = Operand.read_queue ops q in
                    let* page = read_page p in
                    charge t.costs.Costs.queue_op;
                    set_cond (Page_queue.mem queue page)
                | Instr.Dequeue (p, q, whence) ->
                    let* queue = Operand.read_queue ops q in
                    let* slot = Operand.read_page_slot ops p in
                    charge t.costs.Costs.queue_op;
                    let taken =
                      match whence with
                      | Opcode.Queue_end.Head -> Page_queue.dequeue_head queue
                      | Opcode.Queue_end.Tail -> Page_queue.dequeue_tail queue
                    in
                    (match taken with
                    | None ->
                        Err
                          (Printf.sprintf "DeQueue from empty queue %s"
                             (Page_queue.name queue))
                    | Some page ->
                        slot := Some page;
                        next ())
                | Instr.Enqueue (p, q, whence) -> (
                    let* queue = Operand.read_queue ops q in
                    let* page = read_page p in
                    charge t.costs.Costs.queue_op;
                    let* () =
                      if Page_queue.id queue = Page_queue.id free_q then
                        make_free_slot page
                      else Ok ()
                    in
                    match whence with
                    | Opcode.Queue_end.Head ->
                        Page_queue.enqueue_head queue page;
                        next ()
                    | Opcode.Queue_end.Tail ->
                        Page_queue.enqueue_tail queue page;
                        next ())
                | Instr.Request n ->
                    set_cond (t.services.request_frames container n)
                | Instr.Release ix -> (
                    match Operand.kind_at ops ix with
                    | Some Operand.Kint | Some Operand.Kcount ->
                        let* count = Operand.read_int ops ix in
                        let released = t.services.release_count container ~count in
                        set_cond (released >= count)
                    | Some Operand.Kpage ->
                        let* page = read_page ix in
                        let* () = t.services.release_page container page in
                        set_cond true
                    | Some k ->
                        Err
                          (Printf.sprintf "Release: operand %d is a %s" ix
                             (Operand.kind_name k))
                    | None -> Err (Printf.sprintf "Release: operand %d is empty" ix))
                | Instr.Flush p ->
                    let* page = read_page p in
                    let* () = flush page in
                    next ()
                | Instr.Set (p, action, which) ->
                    let* page = read_page p in
                    let v = action = Opcode.Bit_action.Set_bit in
                    (match which with
                    | Opcode.Bit_which.Reference ->
                        Frame.set_referenced (Vm_page.frame page) v
                    | Opcode.Bit_which.Modify -> Frame.set_modified (Vm_page.frame page) v);
                    next ()
                | Instr.Ref p ->
                    let* page = read_page p in
                    set_cond (Vm_page.referenced page)
                | Instr.Mod p ->
                    let* page = read_page p in
                    set_cond (Vm_page.dirty page)
                | Instr.Find (p, va_ix) ->
                    let* va = Operand.read_int ops va_ix in
                    let* slot = Operand.read_page_slot ops p in
                    let region = Container.region container in
                    let vpn = Pmap.vpn_of_va va in
                    let found =
                      if vpn >= region.Vm_map.start_vpn && vpn < Vm_map.region_end_vpn region
                      then
                        Vm_object.find_resident (Container.obj container)
                          ~offset:(Vm_map.offset_of_vpn region vpn)
                      else None
                    in
                    slot := found;
                    set_cond (Option.is_some found)
                | Instr.Activate ev -> (
                    match exec_event ev (depth + 1) with
                    | Value _ -> step (cc + 1)
                    | (Err _ | Tout) as stop -> stop)
                | Instr.Fifo q ->
                    let* queue = Operand.read_queue ops q in
                    let* found = complex_replace queue Page_queue.peek_head in
                    set_cond found
                | Instr.Lru q ->
                    let* queue = Operand.read_queue ops q in
                    let* found = complex_replace queue Page_queue.oldest in
                    set_cond found
                | Instr.Mru q ->
                    let* queue = Operand.read_queue ops q in
                    let* found = complex_replace queue Page_queue.newest in
                    set_cond found
              end
            end
          in
          step 0
  in
  try exec_event event 0
  with Invalid_argument m -> Err (Printf.sprintf "kernel check failed: %s" m)

let run t container ~event =
  let prof =
    if Mx.on () then
      Mx.profile_begin ~container:(Container.id container)
        ~sim_ns:(Sim_time.to_ns (Engine.now t.engine))
    else None
  in
  let result = interpret t container ~event ~prof in
  (match prof with
  | None -> ()
  | Some pr -> Mx.profile_end pr ~sim_ns:(Sim_time.to_ns (Engine.now t.engine)));
  match result with
  | Value v ->
      Container.stop_execution container;
      Returned v
  | Err e ->
      Container.stop_execution container;
      Runtime_error (Printf.sprintf "%s: %s" (Events.name event) e)
  | Tout ->
      (* leave the timestamp in place: the security checker will find it *)
      Timed_out
