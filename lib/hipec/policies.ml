open Program.Asm
module Std = Operand.Std

let lack_free_frame_event = Events.first_user

let assemble items =
  match Program.Asm.assemble items with
  | Ok code -> code
  | Error e -> invalid_arg ("Policies: bad assembly: " ^ e)

(* Shared ReclaimFrame handler: release up to Std.reclaim_target frames,
   evicting from the inactive then active queue when the free list runs
   short.  Loop structure:

     while reclaim_target > 0:
       if free_queue empty:
         evict one page (FIFO inactive, else FIFO active, else give up)
       release 1; reclaim_target -= 1
*)
let std_reclaim =
  [
    Label "loop";
    Op (Instr.Comp (Std.reclaim_target, Std.null, Opcode.Comp_op.Gt));
    Jump_to "done";
    Op (Instr.Emptyq Std.free_queue);
    Jump_to "release";  (* not empty -> release directly *)
    (* free queue empty: manufacture a slot *)
    Op (Instr.Emptyq Std.inactive_queue);
    Jump_to "evict_inactive";
    Op (Instr.Emptyq Std.active_queue);
    Jump_to "evict_active";
    Jump_to "done";  (* nothing evictable *)
    Label "evict_inactive";
    Op (Instr.Fifo Std.inactive_queue);
    Jump_to "loop";  (* eviction failed -> retry/exit via loop guard *)
    Jump_to "release";
    Label "evict_active";
    Op (Instr.Fifo Std.active_queue);
    Jump_to "loop";
    Label "release";
    Op (Instr.Arith (Std.scratch0, Std.scratch0, Opcode.Arith_op.Sub));  (* scratch0 := 0 *)
    Op (Instr.Arith (Std.scratch0, Std.scratch0, Opcode.Arith_op.Inc));  (* scratch0 := 1 *)
    Op (Instr.Release Std.scratch0);
    Jump_to "loop_dec";  (* cond from Release; both paths continue *)
    Label "loop_dec";
    Op (Instr.Arith (Std.reclaim_target, Std.reclaim_target, Opcode.Arith_op.Dec));
    Jump_to "loop";
    Label "done";
    Op (Instr.Return Std.null);
  ]

(* The paper's Table 2 PageFault event:

     if (_free_count > reserved_target) page = dequeue(_free_queue)
     else { Lack_free_frame(); page = dequeue(_free_queue) }
     return page
*)
let table2_page_fault =
  [
    Op (Instr.Comp (Std.free_count, Std.reserved_target, Opcode.Comp_op.Gt));
    Jump_to "lack";
    Label "take";
    Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
    Op (Instr.Return Std.page_reg);
    Label "lack";
    Op (Instr.Activate lack_free_frame_event);
    Jump_to "take";
  ]

(* The paper's Figure 4 Lack_free_frame event (FIFO with second chance),
   with explicit empty-queue guards:

     while (inactive_count < inactive_target && active not empty):
       page = dequeue(active); reset ref; enqueue_tail(inactive)
     while (free_count < free_target && inactive not empty):
       page = dequeue(inactive)
       if referenced: enqueue_tail(active); reset ref
       else: if dirty: flush
             enqueue_head(free)
*)
let table2_lack_free_frame =
  [
    Label "refill";
    Op (Instr.Comp (Std.inactive_count, Std.inactive_target, Opcode.Comp_op.Lt));
    Jump_to "fill_free";
    Op (Instr.Emptyq Std.active_queue);
    Jump_to "refill_body";
    Jump_to "fill_free";
    Label "refill_body";
    Op (Instr.Dequeue (Std.page_reg, Std.active_queue, Opcode.Queue_end.Head));
    Op (Instr.Set (Std.page_reg, Opcode.Bit_action.Reset_bit, Opcode.Bit_which.Reference));
    Op (Instr.Enqueue (Std.page_reg, Std.inactive_queue, Opcode.Queue_end.Tail));
    Jump_to "refill";
    Label "fill_free";
    Op (Instr.Comp (Std.free_count, Std.free_target, Opcode.Comp_op.Lt));
    Jump_to "done";
    Op (Instr.Emptyq Std.inactive_queue);
    Jump_to "fill_body";
    Jump_to "done";
    Label "fill_body";
    Op (Instr.Dequeue (Std.page_reg, Std.inactive_queue, Opcode.Queue_end.Head));
    Op (Instr.Ref Std.page_reg);
    Jump_to "not_referenced";
    (* second chance *)
    Op (Instr.Enqueue (Std.page_reg, Std.active_queue, Opcode.Queue_end.Tail));
    Op (Instr.Set (Std.page_reg, Opcode.Bit_action.Reset_bit, Opcode.Bit_which.Reference));
    Jump_to "fill_free";
    Label "not_referenced";
    Op (Instr.Mod Std.page_reg);
    Jump_to "enqueue_free";
    Op (Instr.Flush Std.page_reg);
    Label "enqueue_free";
    Op (Instr.Enqueue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
    Jump_to "fill_free";
    Label "done";
    Op (Instr.Return Std.null);
  ]

let fifo_second_chance () =
  Program.make
    [
      (Events.page_fault, assemble table2_page_fault);
      (Events.reclaim_frame, assemble std_reclaim);
      (lack_free_frame_event, assemble table2_lack_free_frame);
    ]

(* One-complex-command policies: the paper's point that a complex
   command (FIFO/LRU/MRU) costs one fetch+decode. *)
let complex_fault_code instr_of_queue =
  [
    Op (Instr.Emptyq Std.free_queue);
    Jump_to "take";  (* free slot available *)
    Op (instr_of_queue Std.active_queue);
    Jump_to "take";  (* eviction produced a slot (cond true falls through too) *)
    Label "take";
    Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
    Op (Instr.Return Std.page_reg);
  ]

let simple flavour =
  let instr_of_queue =
    match flavour with
    | `Fifo -> fun q -> Instr.Fifo q
    | `Lru -> fun q -> Instr.Lru q
    | `Mru -> fun q -> Instr.Mru q
  in
  Program.make
    [
      (Events.page_fault, assemble (complex_fault_code instr_of_queue));
      (Events.reclaim_frame, assemble std_reclaim);
    ]

let fifo () = simple `Fifo
let lru () = simple `Lru
let mru () = simple `Mru

(* CLOCK: sweep the active queue head; referenced pages get their bit
   reset and go to the back, the first unreferenced page is evicted. *)
let clock_fault_code =
  [
    Label "check";
    Op (Instr.Emptyq Std.free_queue);
    Jump_to "take";
    Op (Instr.Dequeue (Std.page_reg, Std.active_queue, Opcode.Queue_end.Head));
    Op (Instr.Ref Std.page_reg);
    Jump_to "evict";
    (* second chance: clear the bit and rotate to the back *)
    Op (Instr.Set (Std.page_reg, Opcode.Bit_action.Reset_bit, Opcode.Bit_which.Reference));
    Op (Instr.Enqueue (Std.page_reg, Std.active_queue, Opcode.Queue_end.Tail));
    Jump_to "check";
    Label "evict";
    Op (Instr.Enqueue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
    Label "take";
    Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
    Op (Instr.Return Std.page_reg);
  ]

let clock () =
  Program.make
    [
      (Events.page_fault, assemble clock_fault_code);
      (Events.reclaim_frame, assemble std_reclaim);
    ]

(* Adaptive FIFO/LRU switcher over an observed-reuse latch.

   User operands (declared through Api.spec.extra_operands):
     score     — count of observed reuse events, starts at 0
     threshold — score at which eviction switches from FIFO to LRU
     cap       — saturation ceiling for the score

   The kernel sets a page's reference bit when the fault that installed
   it resolves, so a set bit does not by itself mean "hit".  The
   program keeps the invariant that every active page's bit is clear
   when a PageFault run ends: while un-latched, each fault sweeps the
   whole active queue, and a set bit on any page other than the newest
   (the tail — whose bit is exactly the install artifact) is a genuine
   hit since the previous fault.  Each such hit bumps the saturating
   score; the score never decays, so score >= threshold is a latch:
   the policy evicts FIFO until it first observes reuse, then LRU — a
   stack algorithm, immune to Belady's anomaly — forever after.  Once
   latched the sweep is skipped, so the steady-state fault cost matches
   the plain one-complex-command policies.  The sweep itself is
   order-preserving (head-dequeue, tail-enqueue, once per resident
   page), so the insertion order FIFO relies on is untouched. *)

let adaptive_score = Operand.Std.first_user
let adaptive_threshold = Operand.Std.first_user + 1
let adaptive_cap = Operand.Std.first_user + 2
let default_adaptive_threshold = 1
let default_adaptive_cap = 4

let adaptive_operands ?(threshold = default_adaptive_threshold)
    ?(cap = default_adaptive_cap) () =
  [
    (adaptive_score, Operand.Int (ref 0));
    (adaptive_threshold, Operand.Int (ref threshold));
    (adaptive_cap, Operand.Int (ref cap));
  ]

let adaptive_fault_code =
  let score = adaptive_score
  and threshold = adaptive_threshold
  and cap = adaptive_cap in
  [
    Op (Instr.Comp (score, threshold, Opcode.Comp_op.Ge));
    Jump_to "sweep";  (* not latched yet -> look for reuse *)
    Jump_to "decide";  (* latched -> straight to the LRU eviction *)
    Label "sweep";
    Op (Instr.Emptyq Std.active_queue);
    Jump_to "sweep_init";  (* non-empty -> sweep *)
    Jump_to "decide";  (* nothing resident yet *)
    Label "sweep_init";
    (* scratch1 := active_count - 1: visit every page but the tail *)
    Op (Instr.Arith (Std.scratch1, Std.scratch1, Opcode.Arith_op.Sub));
    Op (Instr.Arith (Std.scratch1, Std.active_count, Opcode.Arith_op.Add));
    Op (Instr.Arith (Std.scratch1, Std.scratch1, Opcode.Arith_op.Dec));
    Label "sweep_loop";
    Op (Instr.Comp (Std.scratch1, Std.null, Opcode.Comp_op.Gt));
    Jump_to "sweep_tail";  (* non-tail pages done *)
    Op (Instr.Dequeue (Std.page_reg, Std.active_queue, Opcode.Queue_end.Head));
    Op (Instr.Ref Std.page_reg);
    Jump_to "sweep_clear";  (* untouched since the last fault *)
    (* a genuine hit: warm the latch (saturating at cap) *)
    Op (Instr.Comp (score, cap, Opcode.Comp_op.Lt));
    Jump_to "sweep_clear";  (* saturated *)
    Op (Instr.Arith (score, score, Opcode.Arith_op.Inc));
    Label "sweep_clear";
    Op (Instr.Set (Std.page_reg, Opcode.Bit_action.Reset_bit, Opcode.Bit_which.Reference));
    Op (Instr.Enqueue (Std.page_reg, Std.active_queue, Opcode.Queue_end.Tail));
    Op (Instr.Arith (Std.scratch1, Std.scratch1, Opcode.Arith_op.Dec));
    Jump_to "sweep_loop";
    Label "sweep_tail";
    (* the newest page last: its set bit is the install artifact, so it
       rotates through uncounted, keeping the all-bits-clear invariant *)
    Op (Instr.Dequeue (Std.page_reg, Std.active_queue, Opcode.Queue_end.Head));
    Op (Instr.Set (Std.page_reg, Opcode.Bit_action.Reset_bit, Opcode.Bit_which.Reference));
    Op (Instr.Enqueue (Std.page_reg, Std.active_queue, Opcode.Queue_end.Tail));
    Label "decide";
    Op (Instr.Emptyq Std.free_queue);
    Jump_to "take";  (* free slot available *)
    Op (Instr.Comp (score, threshold, Opcode.Comp_op.Ge));
    Jump_to "fifo_evict";  (* cold -> cheap FIFO eviction *)
    Op (Instr.Lru Std.active_queue);
    Jump_to "take";  (* both outcomes land on take *)
    Jump_to "take";
    Label "fifo_evict";
    Op (Instr.Fifo Std.active_queue);
    Jump_to "take";
    Label "take";
    Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
    Op (Instr.Return Std.page_reg);
  ]

let adaptive () =
  Program.make
    [
      (Events.page_fault, assemble adaptive_fault_code);
      (Events.reclaim_frame, assemble std_reclaim);
    ]

let greedy_request ~flavour ~chunk =
  let instr_of_queue =
    match flavour with
    | `Fifo -> fun q -> Instr.Fifo q
    | `Lru -> fun q -> Instr.Lru q
    | `Mru -> fun q -> Instr.Mru q
  in
  let code =
    [
      Op (Instr.Emptyq Std.free_queue);
      Jump_to "take";
      (* free queue dry: ask for more memory before evicting *)
      Op (Instr.Request chunk);
      Jump_to "evict";  (* rejected -> replace instead *)
      Jump_to "take";
      Label "evict";
      Op (instr_of_queue Std.active_queue);
      Jump_to "take";
      Label "take";
      Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
      Op (Instr.Return Std.page_reg);
    ]
  in
  Program.make
    [
      (Events.page_fault, assemble code);
      (Events.reclaim_frame, assemble std_reclaim);
    ]

let looping () =
  let code = [ Label "spin"; Jump_to "spin"; Op (Instr.Return Std.null) ] in
  Program.make
    [
      (Events.page_fault, assemble code); (Events.reclaim_frame, assemble std_reclaim);
    ]

let returns_garbage () =
  let code = [ Op (Instr.Return Std.free_count) ] in
  Program.make
    [
      (Events.page_fault, assemble code); (Events.reclaim_frame, assemble std_reclaim);
    ]

(* The one name -> policy table.  Each entry is a thunk so every lookup
   builds a fresh program and fresh user-operand refs (the adaptive
   policy's state lives in them). *)
let builtins =
  [
    ("fifo", fun () -> (fifo (), []));
    ("lru", fun () -> (lru (), []));
    ("mru", fun () -> (mru (), []));
    ("clock", fun () -> (clock (), []));
    ("second-chance", fun () -> (fifo_second_chance (), []));
    ("adaptive", fun () -> (adaptive (), adaptive_operands ()));
    ("greedy", fun () -> (greedy_request ~flavour:`Fifo ~chunk:4, []));
    ("looping", fun () -> (looping (), []));
    ("returns-garbage", fun () -> (returns_garbage (), []));
  ]

let builtin_names = List.map fst builtins
let builtin name = Option.map (fun make -> make ()) (List.assoc_opt name builtins)
