(* The layer map: every module under lib/ belongs to exactly one layer,
   named after the repo's own modules.  The sampler charges a sample to
   the layer of the innermost frame that comes from the repo. *)

type t =
  | Kernel
  | Page_queue
  | Executor
  | Frame_manager
  | Pageout
  | Disk
  | Sim
  | Audit
  | Trace
  | Driver
  | Other

let all =
  [ Kernel; Page_queue; Executor; Frame_manager; Pageout; Disk; Sim; Audit; Trace; Driver;
    Other ]

let name = function
  | Kernel -> "kernel"
  | Page_queue -> "page_queue"
  | Executor -> "executor"
  | Frame_manager -> "frame_manager"
  | Pageout -> "pageout"
  | Disk -> "disk"
  | Sim -> "sim"
  | Audit -> "audit"
  | Trace -> "trace"
  | Driver -> "driver"
  | Other -> "other"

let index = function
  | Kernel -> 0
  | Page_queue -> 1
  | Executor -> 2
  | Frame_manager -> 3
  | Pageout -> 4
  | Disk -> 5
  | Sim -> 6
  | Audit -> 7
  | Trace -> 8
  | Driver -> 9
  | Other -> 10

(* Modules under lib/, by layer.  lib/workloads and lib/minidb are the
   library's own workload drivers; lib/pseudoc compiles policies for
   install, like the checker and the analyser. *)
let table =
  [
    (Kernel, [ "Kernel"; "Vm_map"; "Vm_object"; "Vm_page"; "Task"; "Pmap"; "Frame" ]);
    (Page_queue, [ "Page_queue" ]);
    ( Executor,
      [ "Executor"; "Compiled"; "Fusion"; "Instr"; "Opcode"; "Operand"; "Program";
        "Container"; "Events" ] );
    ( Frame_manager,
      [ "Frame_manager"; "Api"; "Checker"; "Analysis"; "Policies"; "Pressure"; "Ast";
        "Codegen"; "Lexer"; "Optimizer"; "Parser"; "Token"; "Translate" ] );
    (Pageout, [ "Pageout"; "Io_retry" ]);
    (Disk, [ "Disk"; "Costs" ]);
    (Sim, [ "Engine"; "Event_queue"; "Rng"; "Sim_time"; "Stats" ]);
    (Audit, [ "Audit" ]);
    (Trace, [ "Trace"; "Span"; "Event"; "Oracle"; "Metrics"; "Kstat" ]);
    ( Driver,
      [ "Access_trace"; "Adversary"; "Aim"; "Chaos"; "Driver"; "Join"; "Mechanism";
        "Policy_sim"; "Storm"; "Trace_run"; "Btree"; "Db"; "Heap_table"; "Query";
        "Schema"; "Sort" ] );
  ]

let by_module =
  let h = Hashtbl.create 64 in
  List.iter (fun (layer, mods) -> List.iter (fun m -> Hashtbl.replace h m layer) mods) table;
  h

let of_module m = Hashtbl.find_opt by_module m

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* A frame's source file as the compiler recorded it, relative to the
   workspace root: "lib/vm/page_queue.ml", "perfbench/join_mru.ml", or a
   bare stdlib name such as "list.ml".  [None] for frames outside the
   repo, which the sampler skips over to reach their caller. *)
let of_file file =
  if starts_with ~prefix:"lib/" file then of_module (module_of_file file)
  else if starts_with ~prefix:"perfbench/" file then Some Driver
  else None
