(* hipec: the command-line front end.

     hipec translate FILE        translate pseudo-code to HiPEC commands
     hipec check FILE            static security validation only
     hipec run-join ...          the Figure 6 join experiment
     hipec run-aim ...           the Figure 5 throughput experiment
     hipec table3 / table4      the section 5.1 measurements
     hipec trace ...             record/replay/diff structured event traces *)

open Cmdliner
open Hipec_core
open Hipec_vm
open Hipec_workloads
module T = Hipec_sim.Sim_time

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --backend: select the policy-execution engine for commands that run
   policies.  Evaluating the term sets the process-wide default, which
   Frame_manager picks up at container install time. *)
let backend_term =
  let backend_conv =
    Arg.conv
      ( (fun s ->
          match Executor.backend_of_string s with
          | Some b -> Ok b
          | None -> Error (`Msg (Printf.sprintf "unknown backend %S (interp|compiled)" s))),
        fun fmt b -> Format.pp_print_string fmt (Executor.backend_name b) )
  in
  let doc =
    "Policy execution engine: $(b,interp) decodes each command word on every \
     dispatch; $(b,compiled) translates accepted programs to closures once at \
     install time.  Defaults to $(b,HIPEC_BACKEND) or interp."
  in
  Term.(
    const (fun b -> Option.iter Executor.set_default_backend b)
    $ Arg.(value & opt (some backend_conv) None & info [ "backend" ] ~docv:"BACKEND" ~doc))

(* ------------------------------------------------------------------ *)
(* translate                                                           *)
(* ------------------------------------------------------------------ *)

let translate_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Pseudo-code source.")
  in
  let run file =
    match Hipec_pseudoc.Translate.translate (read_file file) with
    | Error e ->
        Printf.eprintf "translation failed: %s\n" e;
        1
    | Ok out ->
        let program = out.Hipec_pseudoc.Codegen.program in
        print_string (Hipec_pseudoc.Translate.listing out);
        Printf.printf ";; %d commands across %d events; %d user operand slots\n"
          (Program.total_commands program)
          (List.length (Program.events program))
          (List.length out.Hipec_pseudoc.Codegen.extra_operands);
        (* install-time facts: the analysis sees the operand values the
           source declared, exactly as an install through Api would *)
        let analysis =
          let ops = Operand.create () in
          let _ =
            Operand.install_std ops ~name:"translate" ~free_target:4 ~inactive_target:8
              ~reserved_target:2
          in
          List.iter
            (fun (ix, v) -> Operand.set ops ix v)
            out.Hipec_pseudoc.Codegen.extra_operands;
          Analysis.analyze ~ops program
        in
        (* what the compiled backend will fuse into superinstructions *)
        let stats, covered, total =
          Hipec_pseudoc.Optimizer.fusion_report ~analysis program
        in
        if covered > 0 then
          Printf.printf ";; compiled-backend fusion: %s — %d of %d commands covered\n"
            (String.concat ", "
               (List.map (fun (n, c) -> Printf.sprintf "%d %s" c n) stats))
            covered total
        else Printf.printf ";; compiled-backend fusion: no fusable groups\n";
        (* fusion groups only the analysis facts made possible *)
        List.iter
          (fun (event, cc, ivl) ->
            let opname =
              match Program.code program ~event with
              | Some code -> (
                  match code.(cc) with
                  | Instr.Arith (_, _, Opcode.Arith_op.Rem) -> "Rem"
                  | _ -> "Div")
              | None -> "Div"
            in
            Printf.printf ";; analysis: %s CC %d %s fused: divisor ∈ %s\n"
              (Events.name event) cc opname
              (Analysis.Interval.to_string ivl))
          (Hipec_pseudoc.Optimizer.div_fusions ~analysis program);
        0
  in
  Cmd.v
    (Cmd.info "translate" ~doc:"Translate a pseudo-code policy to HiPEC commands.")
    Term.(const run $ file)

let check_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Pseudo-code source.")
  in
  let run file =
    match Hipec_pseudoc.Translate.translate (read_file file) with
    | Error e ->
        Printf.eprintf "rejected: %s\n" e;
        1
    | Ok out -> (
        let ops = Operand.create () in
        let _ =
          Operand.install_std ops ~name:"check" ~free_target:4 ~inactive_target:8
            ~reserved_target:2
        in
        List.iter
          (fun (ix, v) -> Operand.set ops ix v)
          out.Hipec_pseudoc.Codegen.extra_operands;
        match Checker.validate out.Hipec_pseudoc.Codegen.program ops with
        | Ok () ->
            print_endline "policy accepted by the security checker";
            (match Checker.Lint.run out.Hipec_pseudoc.Codegen.program with
            | [] -> ()
            | warnings ->
                List.iter
                  (fun w ->
                    Format.printf "warning: %a@." Checker.Lint.pp_warning w)
                  warnings);
            0
        | Error e ->
            Printf.eprintf "security checker rejected: %s\n" e;
            1)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run the security checker's static validation on a policy.")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* lint: the abstract-interpretation rule set                          *)
(* ------------------------------------------------------------------ *)

let builtin_names = String.concat "|" Policies.builtin_names

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let lint_cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Pseudo-code source.")
  in
  let builtin =
    Arg.(value & opt (some string) None
        & info [ "builtin" ] ~docv:"NAME"
            ~doc:(Printf.sprintf "Lint a built-in policy (%s) instead of a file." builtin_names))
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let run file builtin json =
    let source =
      match (file, builtin) with
      | Some _, Some _ -> Error "pass either FILE or --builtin, not both"
      | None, None -> Error "pass a pseudo-code FILE or --builtin NAME"
      | Some f, None ->
          Result.map
            (fun out ->
              ( out.Hipec_pseudoc.Codegen.program,
                out.Hipec_pseudoc.Codegen.extra_operands ))
            (Hipec_pseudoc.Translate.translate (read_file f))
      | None, Some name -> (
          match Policies.builtin name with
          | Some p -> Ok p
          | None -> Error (Printf.sprintf "unknown builtin %S (%s)" name builtin_names))
    in
    match source with
    | Error e ->
        Printf.eprintf "lint: %s\n" e;
        2
    | Ok (program, extras) -> (
        let ops = Operand.create () in
        let _ =
          Operand.install_std ops ~name:"lint" ~free_target:4 ~inactive_target:8
            ~reserved_target:2
        in
        List.iter (fun (ix, v) -> Operand.set ops ix v) extras;
        (* the checker's hard validation gates the advisory rules: an
           invalid program never installs, so linting it is moot *)
        match Checker.validate program ops with
        | Error e ->
            if json then
              Printf.printf "{\"accepted\": false, \"error\": \"%s\"}\n" (json_escape e)
            else Printf.eprintf "security checker rejected: %s\n" e;
            1
        | Ok () ->
            let analysis = Analysis.analyze ~ops program in
            let findings = Analysis.findings analysis in
            let fuels = Analysis.fuel_table analysis in
            let traps = Analysis.possible_traps analysis in
            let errors =
              List.length
                (List.filter (fun f -> f.Analysis.severity = Analysis.Error) findings)
            in
            if json then begin
              let finding_json f =
                Printf.sprintf
                  "    {\"event\": \"%s\", \"cc\": %s, \"severity\": \"%s\", \"rule\": \
                   \"%s\", \"message\": \"%s\"}"
                  (json_escape (Events.name f.Analysis.event))
                  (match f.Analysis.cc with Some cc -> string_of_int cc | None -> "null")
                  (Analysis.severity_name f.Analysis.severity)
                  (json_escape f.Analysis.rule)
                  (json_escape f.Analysis.message)
              in
              let fuel_json (ev, fuel) =
                Printf.sprintf "    {\"event\": \"%s\", \"fuel\": \"%s\"%s}"
                  (json_escape (Events.name ev))
                  (match fuel with
                  | Analysis.Bounded _ -> "bounded"
                  | Analysis.Terminates -> "terminates"
                  | Analysis.Unbounded _ -> "unbounded")
                  (match fuel with
                  | Analysis.Bounded n -> Printf.sprintf ", \"commands\": %d" n
                  | Analysis.Terminates -> ""
                  | Analysis.Unbounded reason ->
                      Printf.sprintf ", \"reason\": \"%s\"" (json_escape reason))
              in
              Printf.printf
                "{\n\
                 \  \"accepted\": true,\n\
                 \  \"errors\": %d,\n\
                 \  \"findings\": [\n%s\n  ],\n\
                 \  \"fuel\": [\n%s\n  ],\n\
                 \  \"possible_traps\": [%s]\n\
                 }\n"
                errors
                (String.concat ",\n" (List.map finding_json findings))
                (String.concat ",\n" (List.map fuel_json fuels))
                (String.concat ", "
                   (List.map
                      (fun t -> Printf.sprintf "\"%s\"" (Analysis.trap_name t))
                      traps))
            end
            else begin
              List.iter
                (fun f -> Format.printf "%a@." Analysis.pp_finding f)
                findings;
              List.iter
                (fun (ev, fuel) ->
                  Format.printf "fuel: %s: %a@." (Events.name ev) Analysis.pp_fuel fuel)
                fuels;
              (match traps with
              | [] -> print_endline "runtime traps: none possible"
              | ts ->
                  Printf.printf "runtime traps possible: %s\n"
                    (String.concat ", " (List.map Analysis.trap_name ts)));
              Printf.printf "%d findings (%d errors)\n" (List.length findings) errors
            end;
            if errors > 0 then 1 else 0)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the abstract-interpretation rule set on a policy: typestate and \
          interval warnings, guaranteed non-termination, and static fuel bounds. \
          Exits nonzero on error-severity findings.")
    Term.(const run $ file $ builtin $ json)

let assemble_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Pseudo-code source.")
  in
  let output =
    Arg.(required & opt (some string) None
        & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Binary command-buffer output path.")
  in
  let run file output =
    match Hipec_pseudoc.Translate.translate (read_file file) with
    | Error e ->
        Printf.eprintf "translation failed: %s\n" e;
        1
    | Ok out ->
        let bytes = Program.to_bytes out.Hipec_pseudoc.Codegen.program in
        let oc = open_out_bin output in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_bytes oc bytes);
        Printf.printf "wrote %d bytes (%d commands) to %s\n" (Bytes.length bytes)
          (Program.total_commands out.Hipec_pseudoc.Codegen.program)
          output;
        0
  in
  Cmd.v
    (Cmd.info "assemble" ~doc:"Translate pseudo-code and write the binary command buffer.")
    Term.(const run $ file $ output)

let disassemble_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
        & info [] ~docv:"FILE" ~doc:"Binary command buffer.")
  in
  let run file =
    match Program.of_bytes (Bytes.of_string (read_file file)) with
    | Error e ->
        Printf.eprintf "not a valid command buffer: %s\n" e;
        1
    | Ok program ->
        Format.printf "%a" Program.pp program;
        0
  in
  Cmd.v
    (Cmd.info "disassemble" ~doc:"Print a Table 2-style listing of a binary command buffer.")
    Term.(const run $ file)

let pattern_doc = String.concat "|" Trace_run.pattern_names ^ "."
let policy_names = String.concat "|" Trace_run.policy_names

let advise_cmd =
  let pattern =
    Arg.(value & opt string "cyclic" & info [ "pattern" ] ~docv:"P" ~doc:pattern_doc)
  in
  let npages = Arg.(value & opt int 256 & info [ "pages" ] ~docv:"N" ~doc:"Region pages.") in
  let frames = Arg.(value & opt int 64 & info [ "frames" ] ~docv:"N" ~doc:"Frame budget.") in
  let count = Arg.(value & opt int 4096 & info [ "count" ] ~docv:"N" ~doc:"Accesses.") in
  let run pattern npages frames count =
    if npages < 1 || frames < 1 || count < 1 then begin
      Printf.eprintf "--pages, --frames and --count must be >= 1\n";
      exit 2
    end;
    let trace =
      match
        Trace_run.build_trace
          { Trace_run.default_policy_cfg with pattern; npages; frames; count; seed = 23 }
      with
      | Ok trace -> trace
      | Error e ->
          Printf.eprintf "%s\n" e;
          exit 2
    in
    Printf.printf "offline replacement simulation: %d pages, %d frames, %d accesses\n\n"
      npages frames (Array.length trace);
    List.iter
      (fun (policy, faults) ->
        Printf.printf "  %-6s %8d faults%s\n"
          (Policy_sim.policy_name policy)
          faults
          (if policy = Policy_sim.Opt then "  (offline optimal, unachievable)" else ""))
      (Policy_sim.sweep ~frames trace);
    Printf.printf "\nrecommended HiPEC policy: %s\n"
      (Policy_sim.policy_name (Policy_sim.advise ~frames trace));
    0
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Simulate classic policies offline on a trace and recommend one.")
    Term.(const run $ pattern $ npages $ frames $ count)

(* ------------------------------------------------------------------ *)
(* run-join                                                            *)
(* ------------------------------------------------------------------ *)

let policy_conv =
  let parse = function
    | "default" -> Ok Join.Kernel_default
    | "mru" -> Ok Join.Hipec_mru
    | "lru" -> Ok Join.Hipec_lru
    | "fifo" -> Ok Join.Hipec_fifo
    | s -> Error (`Msg (Printf.sprintf "unknown policy %S (default|mru|lru|fifo)" s))
  in
  let print fmt p =
    Format.pp_print_string fmt
      (match p with
      | Join.Kernel_default -> "default"
      | Join.Hipec_mru -> "mru"
      | Join.Hipec_lru -> "lru"
      | Join.Hipec_fifo -> "fifo"
      | Join.Hipec_custom _ -> "custom")
  in
  Arg.conv (parse, print)

let join_cmd =
  let outer =
    Arg.(value & opt int 60 & info [ "outer" ] ~docv:"MB" ~doc:"Outer table size in MB.")
  in
  let memory =
    Arg.(value & opt int 40 & info [ "memory" ] ~docv:"MB" ~doc:"Managed memory (MSize).")
  in
  let policy =
    Arg.(value & opt policy_conv Join.Hipec_mru
        & info [ "policy" ] ~docv:"POLICY" ~doc:"default|mru|lru|fifo.")
  in
  let scans =
    Arg.(value & opt int 64 & info [ "scans" ] ~docv:"N" ~doc:"Outer-table scans (Loop).")
  in
  let run () outer memory policy scans =
    let c =
      {
        Join.default_config with
        Join.outer_mb = outer;
        memory_mb = memory;
        inner_bytes = scans * 64;
      }
    in
    let r = Join.run policy c in
    Printf.printf "join: outer=%dMB memory=%dMB scans=%d\n" outer memory (Join.loops c);
    Printf.printf "  elapsed        %10.2f min\n" (T.to_min_f r.Join.elapsed);
    Printf.printf "  faults         %10d (analytic LRU %d, MRU %d)\n" r.Join.faults
      (Join.predicted_faults `Lru c)
      (Join.predicted_faults `Mru c);
    Printf.printf "  pageins        %10d\n" r.Join.pageins;
    Printf.printf "  output tuples  %10d\n" r.Join.output_tuples;
    0
  in
  Cmd.v
    (Cmd.info "run-join" ~doc:"Run the nested-loop join of the paper's section 5.3.")
    Term.(const run $ backend_term $ outer $ memory $ policy $ scans)

(* ------------------------------------------------------------------ *)
(* run-aim                                                             *)
(* ------------------------------------------------------------------ *)

let aim_cmd =
  let users = Arg.(value & opt int 6 & info [ "users" ] ~docv:"N" ~doc:"Concurrent users.") in
  let mix =
    let mix_conv =
      Arg.conv
        ( (function
          | "standard" -> Ok Aim.Standard
          | "disk" -> Ok Aim.Disk_heavy
          | "memory" -> Ok Aim.Memory_heavy
          | s -> Error (`Msg (Printf.sprintf "unknown mix %S" s))),
          fun fmt m -> Format.pp_print_string fmt (Aim.mix_name m) )
    in
    Arg.(value & opt mix_conv Aim.Standard
        & info [ "mix" ] ~docv:"MIX" ~doc:"standard|disk|memory.")
  in
  let seconds =
    Arg.(value & opt int 60 & info [ "seconds" ] ~docv:"S" ~doc:"Simulated duration.")
  in
  let hipec = Arg.(value & flag & info [ "hipec" ] ~doc:"Run on the HiPEC kernel.") in
  let run () users mix seconds hipec =
    let cfg =
      { Aim.default_config with Aim.users; mix; duration = T.sec seconds;
        hipec_kernel = hipec }
    in
    let r = Aim.run cfg in
    Printf.printf "aim: users=%d mix=%s kernel=%s\n" users (Aim.mix_name mix)
      (if hipec then "HiPEC" else "Mach");
    Printf.printf "  jobs completed  %8d (%.1f jobs/min)\n" r.Aim.jobs_completed
      r.Aim.jobs_per_minute;
    Printf.printf "  faults          %8d  pageouts %d\n" r.Aim.faults r.Aim.pageouts;
    Printf.printf "  cpu busy        %8.1f s  disk busy %.1f s\n" (T.to_sec_f r.Aim.cpu_busy)
      (T.to_sec_f r.Aim.disk_busy);
    0
  in
  Cmd.v
    (Cmd.info "run-aim" ~doc:"Run the AIM-style throughput benchmark of section 5.2.")
    Term.(const run $ backend_term $ users $ mix $ seconds $ hipec)

(* ------------------------------------------------------------------ *)
(* table3 / table4                                                     *)
(* ------------------------------------------------------------------ *)

let table3_cmd =
  let pages =
    Arg.(value & opt int 10_240 & info [ "pages" ] ~docv:"N" ~doc:"Pages to fault (10240 = 40 MB).")
  in
  let run pages =
    List.iter
      (fun with_disk_io ->
        let mach = Driver.table3_run ~pages Driver.Mach ~with_disk_io in
        let hipec = Driver.table3_run ~pages Driver.Hipec ~with_disk_io in
        Printf.printf "%s disk I/O: Mach %.1f ms, HiPEC %.1f ms, overhead %.3f%%\n"
          (if with_disk_io then "with" else "without")
          (T.to_ms_f mach.Driver.elapsed) (T.to_ms_f hipec.Driver.elapsed)
          (Driver.overhead_percent ~baseline:mach ~subject:hipec))
      [ false; true ];
    0
  in
  Cmd.v (Cmd.info "table3" ~doc:"Reproduce Table 3.") Term.(const run $ pages)

let table4_cmd =
  let run () =
    let t4 = Driver.table4_run () in
    Printf.printf "null syscall %.0f us, null IPC %.0f us, HiPEC fast path %d ns (%d commands)\n"
      (T.to_us_f t4.Driver.null_syscall) (T.to_us_f t4.Driver.null_ipc)
      (T.to_ns t4.Driver.hipec_fast_path) t4.Driver.fast_path_commands;
    0
  in
  Cmd.v (Cmd.info "table4" ~doc:"Reproduce Table 4.") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

module Tr = Hipec_trace.Trace
module Sp = Hipec_trace.Span

let trace_run_cmd =
  let pattern =
    Arg.(value & opt string "cyclic" & info [ "pattern" ] ~docv:"P" ~doc:pattern_doc)
  in
  let npages = Arg.(value & opt int 256 & info [ "pages" ] ~docv:"N" ~doc:"Region pages.") in
  let frames =
    Arg.(value & opt int 128 & info [ "frames" ] ~docv:"N" ~doc:"Private frames (minFrame).")
  in
  let policy_file =
    Arg.(value & opt (some file) None
        & info [ "policy" ] ~docv:"FILE" ~doc:"Pseudo-code policy (default: built-in MRU).")
  in
  let count = Arg.(value & opt int 4096 & info [ "count" ] ~docv:"N" ~doc:"Accesses.") in
  let run () pattern npages frames policy_file count =
    if npages < 1 || frames < 1 || count < 1 then begin
      Printf.eprintf "--pages, --frames and --count must be >= 1\n";
      exit 2
    end;
    let trace =
      match
        Trace_run.build_trace
          { Trace_run.default_policy_cfg with pattern; npages; frames; count }
      with
      | Ok trace -> trace
      | Error e ->
          Printf.eprintf "%s\n" e;
          exit 2
    in
    let spec =
      match policy_file with
      | None -> Ok (Api.default_spec ~policy:(Policies.mru ()) ~min_frames:frames)
      | Some f -> Hipec_pseudoc.Translate.to_spec (read_file f) ~min_frames:frames
    in
    match spec with
    | Error e ->
        Printf.eprintf "policy: %s\n" e;
        1
    | Ok spec -> (
        let config = { Kernel.default_config with Kernel.hipec_kernel = true } in
        let k = Kernel.create ~config () in
        let sys = Api.init k in
        let task = Kernel.create_task k () in
        match Api.vm_allocate_hipec sys task ~npages spec with
        | Error e ->
            Printf.eprintf "vm_allocate_hipec: %s\n" e;
            1
        | Ok (region, container) ->
            let t0 = Kernel.now k in
            let faults = Access_trace.faults_during k task region trace in
            Printf.printf
              "replayed %d accesses: %d faults (%.1f%%), %s elapsed, %d commands interpreted\n"
              (Array.length trace) faults
              (100. *. float_of_int faults /. float_of_int (Array.length trace))
              (Format.asprintf "%a" T.pp (T.sub (Kernel.now k) t0))
              (Container.commands_interpreted container);
            print_endline (Kstat.to_string k);
            0)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Replay a synthetic access trace under a HiPEC policy.")
    Term.(const run $ backend_term $ pattern $ npages $ frames $ policy_file $ count)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let load_recorded path =
  match Tr.Recorded.load ~path with
  | Ok r -> Some r
  | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      None

let pp_event_opt fmt = function
  | None -> Format.pp_print_string fmt "(stream ended)"
  | Some ev -> Hipec_trace.Event.pp fmt ev

let print_divergence (d : Tr.Recorded.divergence) =
  Format.printf "first divergence at event %d:@.  recorded  %a@.  replayed  %a@."
    d.Tr.Recorded.seq pp_event_opt d.Tr.Recorded.left pp_event_opt d.Tr.Recorded.right

let scenario_args =
  let scenario =
    Arg.(value & opt (some string) None
        & info [ "scenario" ]
            ~docv:"NAME"
            ~doc:"Named scenario: policy|join-small|aim-small|chaos-smoke|storm-smoke. \
                  Overrides the pattern options.")
  in
  let pattern =
    Arg.(value & opt string Trace_run.default_policy_cfg.Trace_run.pattern
        & info [ "pattern" ] ~docv:"P" ~doc:pattern_doc)
  in
  let npages =
    Arg.(value & opt int Trace_run.default_policy_cfg.Trace_run.npages
        & info [ "pages" ] ~docv:"N" ~doc:"Region pages.")
  in
  let frames =
    Arg.(value & opt int Trace_run.default_policy_cfg.Trace_run.frames
        & info [ "frames" ] ~docv:"N" ~doc:"Private frames (minFrame).")
  in
  let policy =
    Arg.(value & opt string Trace_run.default_policy_cfg.Trace_run.policy
        & info [ "policy" ] ~docv:"NAME" ~doc:(policy_names ^ "."))
  in
  let count =
    Arg.(value & opt int Trace_run.default_policy_cfg.Trace_run.count
        & info [ "count" ] ~docv:"N" ~doc:"Accesses.")
  in
  let seed =
    Arg.(value & opt int Trace_run.default_policy_cfg.Trace_run.seed
        & info [ "seed" ] ~docv:"N" ~doc:"Deterministic seed.")
  in
  let build scenario pattern npages frames policy count seed =
    match scenario with
    | Some name -> (
        match Trace_run.scenario_of_name name with
        | Some s -> Ok s
        | None ->
            Error
              (Printf.sprintf "unknown scenario %S (policy|%s)" name
                 (String.concat "|" Trace_run.named_scenarios)))
    | None ->
        if npages < 1 || frames < 1 || count < 1 then
          Error "--pages, --frames and --count must be >= 1"
        else Ok (Trace_run.Policy { Trace_run.pattern; npages; frames; policy; count; seed })
  in
  Term.(const build $ scenario $ pattern $ npages $ frames $ policy $ count $ seed)

let trace_record_cmd =
  let output =
    Arg.(value & opt string "hipec.trace"
        & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Recording output path.")
  in
  let json =
    Arg.(value & opt (some string) None
        & info [ "json" ] ~docv:"FILE" ~doc:"Also export the stream as JSON.")
  in
  let run () scenario output json =
    match scenario with
    | Error e ->
        Printf.eprintf "%s\n" e;
        2
    | Ok scenario -> (
        match Trace_run.record scenario with
        | Error e ->
            Printf.eprintf "record failed: %s\n" e;
            1
        | Ok r ->
            Tr.Recorded.save r ~path:output;
            Option.iter (fun p -> write_file p (Tr.Recorded.to_json r)) json;
            Printf.printf "recorded %d events, digest %s -> %s\n"
              (Array.length r.Tr.Recorded.events)
              (Tr.digest_hex r.Tr.Recorded.digest)
              output;
            0)
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Run a scenario under the trace collector and serialize the event stream.")
    Term.(const run $ backend_term $ scenario_args $ output $ json)

let trace_replay_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"A .trace recording.")
  in
  let run () file =
    match load_recorded file with
    | None -> 1
    | Some r -> (
        match Trace_run.replay r with
        | Error e ->
            Printf.eprintf "replay failed: %s\n" e;
            1
        | Ok o ->
            Printf.printf "recorded digest %s (%d events)\n"
              (Tr.digest_hex o.Trace_run.recorded_digest)
              (Array.length r.Tr.Recorded.events);
            Printf.printf "replayed digest %s (%d events)\n"
              (Tr.digest_hex o.Trace_run.replayed_digest)
              o.Trace_run.events_replayed;
            if Trace_run.matches o then begin
              print_endline "replay reproduces the recording";
              0
            end
            else begin
              Option.iter print_divergence o.Trace_run.divergence;
              1
            end)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-execute a recording deterministically and diff the event digest.")
    Term.(const run $ backend_term $ file)

let trace_diff_cmd =
  let file n doc = Arg.(required & pos n (some file) None & info [] ~docv:"FILE" ~doc) in
  let run a b =
    match (load_recorded a, load_recorded b) with
    | Some ra, Some rb -> (
        match Tr.Recorded.diff ra rb with
        | None ->
            Printf.printf "identical: %d events, digest %s\n"
              (Array.length ra.Tr.Recorded.events)
              (Tr.digest_hex ra.Tr.Recorded.digest);
            0
        | Some d ->
            print_divergence d;
            1)
    | _ -> 1
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare two recordings event for event.")
    Term.(const run $ file 0 "Left recording." $ file 1 "Right recording.")

let trace_export_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"A .trace recording.")
  in
  let output =
    Arg.(value & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE" ~doc:"JSON output path (default stdout).")
  in
  let run file output =
    match load_recorded file with
    | None -> 1
    | Some r ->
        let json = Tr.Recorded.to_json r in
        (match output with None -> print_string json | Some p -> write_file p json);
        0
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a binary recording as JSON.")
    Term.(const run $ file $ output)

let trace_cmd =
  let default = Term.(ret (const (`Help (`Pager, Some "trace")))) in
  Cmd.group ~default
    (Cmd.info "trace"
       ~doc:
         "Structured event tracing: run a synthetic trace, record a scenario's event \
          stream, replay it deterministically, and diff recordings.")
    [ trace_run_cmd; trace_record_cmd; trace_replay_cmd; trace_diff_cmd; trace_export_cmd ]

(* ------------------------------------------------------------------ *)
(* stat                                                                *)
(* ------------------------------------------------------------------ *)

module Mx = Hipec_metrics.Metrics

let opcode_label code =
  match Opcode.of_code code with
  | Some op -> Opcode.name op
  | None -> Printf.sprintf "op%02x" code

let scenario_name = function
  | Trace_run.Named n -> n
  | Trace_run.Policy cfg ->
      Printf.sprintf "policy:%s/%s" cfg.Trace_run.pattern cfg.Trace_run.policy

let backend_totals reg b =
  Mx.Registry.profile_totals reg ~backend:(Executor.backend_name b)

(* With both backends profiled, their per-opcode simulated attributions
   must be cell-for-cell identical: the boundary timers sit at the same
   simulated instants in the interpreter and the compiled prologue.
   [None] when fewer than two backends ran. *)
let sim_totals_agree reg backends =
  match List.map (backend_totals reg) backends with
  | [ Some (ca, oa, _); Some (cb, ob, _) ] ->
      let agree = ref (oa.Mx.Profile.sim_ns = ob.Mx.Profile.sim_ns) in
      Array.iteri
        (fun i (c : Mx.Profile.cell) ->
          let d = cb.(i) in
          if c.Mx.Profile.count <> d.Mx.Profile.count
             || c.Mx.Profile.sim_ns <> d.Mx.Profile.sim_ns
          then agree := false)
        ca;
      Some !agree
  | _ -> None

(* Fuel attribution must be backend-independent: with both backends run,
   the hipec.fuel.<backend>.commands counters must agree exactly (the
   ledger charges Container.commands_interpreted deltas, which both
   backends increment identically).  [None] unless both counters exist. *)
let fuel_totals_agree reg backends =
  match
    List.map
      (fun b ->
        Mx.Registry.counter_value reg
          ("hipec.fuel." ^ Executor.backend_name b ^ ".commands"))
      backends
  with
  | [ Some a; Some b ] -> Some (a = b)
  | _ -> None

let print_stat_tables reg backends =
  print_endline "metrics";
  List.iter
    (fun (name, v) -> Printf.printf "  %-34s %s\n" name v)
    (Mx.Registry.kstat_lines reg);
  List.iter
    (fun b ->
      match backend_totals reg b with
      | None -> ()
      | Some (cells, overhead, runs) ->
          Printf.printf "\nopcode profile (%s backend, %d runs)\n"
            (Executor.backend_name b) runs;
          Printf.printf "  %-10s %10s %14s %14s\n" "op" "count" "sim_ns" "wall_ns";
          Array.iteri
            (fun i (c : Mx.Profile.cell) ->
              if c.Mx.Profile.count > 0 then
                Printf.printf "  %-10s %10d %14d %14d\n" (opcode_label i)
                  c.Mx.Profile.count c.Mx.Profile.sim_ns c.Mx.Profile.wall_ns)
            cells;
          Printf.printf "  %-10s %10d %14d %14d\n" "(overhead)"
            overhead.Mx.Profile.count overhead.Mx.Profile.sim_ns
            overhead.Mx.Profile.wall_ns;
          (* the overhead cell is everything before the first fetch of
             each run — dispatch + entry, i.e. the per-run setup cost *)
          if runs > 0 then
            Printf.printf "  %-10s %10s %14d %14d  per-run setup (avg ns)\n"
              "(run setup)" ""
              (overhead.Mx.Profile.sim_ns / runs)
              (overhead.Mx.Profile.wall_ns / runs))
    backends

let print_stat_watch reg =
  List.iter
    (fun s ->
      let pts = Mx.Series.points s in
      Printf.printf "\n%s (tick %d ms, %d points%s)\n" (Mx.Series.name s)
        (Mx.Series.tick_ns s / 1_000_000)
        (Array.length pts)
        (if Mx.Series.dropped s > 0 then
           Printf.sprintf ", %d dropped" (Mx.Series.dropped s)
         else "");
      Printf.printf "  %12s %12s\n" "sim ms" "value";
      Array.iter
        (fun (tns, v) -> Printf.printf "  %12.1f %12d\n" (float_of_int tns /. 1e6) v)
        pts)
    (Mx.Registry.series_list reg)

let stat_cmd =
  let backends =
    let backend_set =
      Arg.conv
        ( (function
          | "interp" -> Ok [ Executor.Interp ]
          | "compiled" -> Ok [ Executor.Compiled ]
          | "both" -> Ok [ Executor.Interp; Executor.Compiled ]
          | s ->
              Error (`Msg (Printf.sprintf "unknown backend %S (interp|compiled|both)" s))),
          fun fmt bs ->
            Format.pp_print_string fmt
              (match bs with
              | [ Executor.Interp ] -> "interp"
              | [ Executor.Compiled ] -> "compiled"
              | _ -> "both") )
    in
    Arg.(value & opt backend_set [ Executor.Interp; Executor.Compiled ]
        & info [ "backend" ] ~docv:"B"
            ~doc:
              "Policy execution engines to run and profile: \
               $(b,interp)|$(b,compiled)|$(b,both).  With $(b,both) the per-opcode \
               simulated-cycle attributions must agree cell for cell; a mismatch \
               exits nonzero.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the metrics snapshot as JSON.")
  in
  let prom =
    Arg.(value & flag
        & info [ "prom" ] ~doc:"Emit the snapshot in Prometheus text exposition format.")
  in
  let watch =
    Arg.(value & flag
        & info [ "watch" ]
            ~doc:
              "Append watch-style interval tables: each sim-tick time series printed \
               as (sim ms, value) rows.")
  in
  let tick =
    Arg.(value & opt int 10
        & info [ "tick" ] ~docv:"MS"
            ~doc:"Time-series sampling tick in simulated milliseconds.")
  in
  let spans_flag =
    Arg.(value & flag
        & info [ "spans" ]
            ~doc:
              "Also reconstruct fault-lifecycle spans during each run (installs the \
               trace sink alongside the metrics registry) and print the critical-path \
               attribution table.  With $(b,both) backends the span digests must \
               agree; a mismatch exits nonzero.")
  in
  let run scenario backends json prom watch tick with_spans =
    match scenario with
    | Error e ->
        Printf.eprintf "%s\n" e;
        2
    | Ok scenario ->
        if tick < 1 then begin
          Printf.eprintf "--tick must be >= 1\n";
          2
        end
        else begin
          (* One registry across all runs: counters and histograms
             aggregate over every backend's run, while opcode profiles
             stay separate (keyed by backend). *)
          let saved = Executor.default_backend () in
          let reg = Mx.install ~tick_ns:(tick * 1_000_000) () in
          let span_builders = ref [] in
          let outcome =
            Fun.protect
              ~finally:(fun () ->
                ignore (Mx.uninstall ());
                Executor.set_default_backend saved)
              (fun () ->
                List.fold_left
                  (fun acc b ->
                    match acc with
                    | Error _ as e -> e
                    | Ok () ->
                        Executor.set_default_backend b;
                        if with_spans then begin
                          let sb = Sp.create () in
                          let _collector = Tr.start () in
                          Tr.set_consumer (Some (Sp.feed sb));
                          let r =
                            Fun.protect
                              ~finally:(fun () -> ignore (Tr.stop ()))
                              (fun () -> Trace_run.run_scenario scenario)
                          in
                          span_builders := (b, sb) :: !span_builders;
                          r
                        end
                        else Trace_run.run_scenario scenario)
                  (Ok ()) backends)
          in
          match outcome with
          | Error e ->
              Printf.eprintf "scenario failed: %s\n" e;
              1
          | Ok () ->
              let agree = sim_totals_agree reg backends in
              let fuel_agree = fuel_totals_agree reg backends in
              let span_rows = List.rev !span_builders in
              let spans_agree =
                match span_rows with
                | [ (_, a); (_, b) ] -> Some (Int64.equal (Sp.digest a) (Sp.digest b))
                | _ -> None
              in
              if json then
                Printf.printf
                  "{\"scenario\":%S,\"sim_totals_equal\":%s,\"fuel_totals_equal\":%s,\"span_digests_equal\":%s,%s\"metrics\":%s}\n"
                  (scenario_name scenario)
                  (match agree with
                  | Some b -> string_of_bool b
                  | None -> "null")
                  (match fuel_agree with
                  | Some b -> string_of_bool b
                  | None -> "null")
                  (match spans_agree with
                  | Some b -> string_of_bool b
                  | None -> "null")
                  (match span_rows with
                  | (_, sb) :: _ ->
                      Printf.sprintf "\"spans\":%s,"
                        (String.trim (Sp.to_json ~include_spans:false sb))
                  | [] -> "")
                  (Mx.Registry.to_json ~opcode_name:opcode_label reg)
              else if prom then print_string (Mx.Registry.to_prom ~opcode_name:opcode_label reg)
              else begin
                Printf.printf "scenario %s\n\n" (scenario_name scenario);
                print_stat_tables reg backends;
                (match span_rows with
                | (b0, sb) :: _ ->
                    Printf.printf "\nspan attribution (%s backend, digest %s)\n"
                      (Executor.backend_name b0)
                      (Tr.digest_hex (Sp.digest sb));
                    Format.printf "%a@." Sp.Agg.pp (Sp.Agg.compute (Sp.spans sb))
                | [] -> ());
                (match agree with
                | Some true ->
                    print_endline "\nper-opcode simulated totals: backends agree"
                | Some false ->
                    print_endline "\nper-opcode simulated totals: BACKEND MISMATCH"
                | None -> ());
                (match fuel_agree with
                | Some true -> print_endline "fuel attribution: backends agree"
                | Some false -> print_endline "fuel attribution: BACKEND MISMATCH"
                | None -> ());
                (match spans_agree with
                | Some true -> print_endline "span digests: backends agree"
                | Some false -> print_endline "span digests: BACKEND MISMATCH"
                | None -> ());
                if watch then print_stat_watch reg
              end;
              (match (agree, fuel_agree, spans_agree) with
              | Some false, _, _ ->
                  Printf.eprintf
                    "interp and compiled disagree on per-opcode simulated cycles\n";
                  1
              | _, Some false, _ ->
                  Printf.eprintf "interp and compiled disagree on fuel attribution\n";
                  1
              | _, _, Some false ->
                  Printf.eprintf "interp and compiled disagree on span digests\n";
                  1
              | _ -> 0)
        end
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Run a scenario under the metrics registry and print the snapshot: counters, \
          gauges, latency histogram percentiles, sim-tick time series and the \
          per-opcode executor profile for each backend.")
    Term.(const run $ scenario_args $ backends $ json $ prom $ watch $ tick $ spans_flag)

(* ------------------------------------------------------------------ *)
(* spans                                                               *)
(* ------------------------------------------------------------------ *)

let spans_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the span summary as JSON.")
  in
  let perfetto =
    Arg.(value & flag
        & info [ "perfetto" ]
            ~doc:
              "Emit Chrome/Perfetto trace_event JSON of the span tree (fault > phase \
               > segment) instead of the attribution table.")
  in
  let tenant =
    Arg.(value & opt (some int) None
        & info [ "tenant" ] ~docv:"N"
            ~doc:
              "Restrict the table, span listing and exports to the normalized task \
               id N (the trace's dense first-seen order).")
  in
  let file =
    Arg.(value & opt (some file) None
        & info [ "file" ] ~docv:"FILE"
            ~doc:
              "Build spans offline from a recorded .trace instead of running a \
               scenario (skips the cross-backend check).")
  in
  let output =
    Arg.(value & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE"
            ~doc:"Write the export there instead of stdout.")
  in
  let show =
    Arg.(value & flag
        & info [ "show-spans" ] ~doc:"Also print each fault's phase breakdown.")
  in
  let run scenario json perfetto tenant file output show =
    let emit s = match output with None -> print_string s | Some p -> write_file p s in
    let filter b =
      let sps = Sp.spans b in
      match tenant with
      | None -> sps
      | Some t ->
          Array.of_seq (Seq.filter (fun sp -> sp.Sp.task = t) (Array.to_seq sps))
    in
    let render ~label b =
      let sel = filter b in
      if perfetto then emit (Sp.to_perfetto sel)
      else if json then emit (Sp.to_json ?only_task:tenant b)
      else begin
        Printf.printf "%s: %d faults (%d kills), span digest %s\n" label
          (Sp.fault_count b) (Sp.kills b)
          (Tr.digest_hex (Sp.digest b));
        (match tenant with
        | Some t ->
            Printf.printf "tenant (task %d): %d of %d faults\n" t (Array.length sel)
              (Sp.fault_count b)
        | None -> ());
        Format.printf "%a@." Sp.Agg.pp (Sp.Agg.compute sel);
        if show then Array.iter (fun sp -> Format.printf "%a@." Sp.pp_span sp) sel
      end
    in
    match (scenario, file) with
    | Error e, _ ->
        Printf.eprintf "%s\n" e;
        2
    | Ok _, Some path -> (
        match load_recorded path with
        | None -> 1
        | Some r ->
            render ~label:path (Sp.of_events r.Tr.Recorded.events);
            0)
    | Ok scenario, None -> (
        (* run the scenario on both backends: the span digests must be
           bit-identical, exactly as the trace digests are *)
        let build backend =
          let saved = Executor.default_backend () in
          Executor.set_default_backend backend;
          Fun.protect
            ~finally:(fun () -> Executor.set_default_backend saved)
            (fun () ->
              Result.map
                (fun r -> Sp.of_events r.Tr.Recorded.events)
                (Trace_run.record scenario))
        in
        match (build Executor.Interp, build Executor.Compiled) with
        | Error e, _ | _, Error e ->
            Printf.eprintf "scenario failed: %s\n" e;
            1
        | Ok bi, Ok bc ->
            if not (Int64.equal (Sp.digest bi) (Sp.digest bc)) then begin
              Printf.eprintf
                "span digests diverge across backends: interp %s, compiled %s\n"
                (Tr.digest_hex (Sp.digest bi))
                (Tr.digest_hex (Sp.digest bc));
              1
            end
            else begin
              render ~label:(scenario_name scenario) bi;
              0
            end)
  in
  Cmd.v
    (Cmd.info "spans"
       ~doc:
         "Reconstruct causal fault-lifecycle spans for a scenario (or a recorded \
          .trace) and print the critical-path attribution table: per-segment totals, \
          p50/p90/p99, and where the p99 tail's latency went.  Scenario runs execute \
          on both backends and exit nonzero if the span digests diverge.")
    Term.(
      const run $ scenario_args $ json $ perfetto $ tenant $ file $ output $ show)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Seconds-scale variant for CI.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Deterministic seed.")
  in
  let rate =
    Arg.(value & opt (some float) None
        & info [ "transient-rate" ] ~docv:"P"
            ~doc:"Per-request transient disk-error probability (default 0.01).")
  in
  let run smoke seed rate =
    (match rate with
    | Some p when p < 0. || p >= 1. ->
        prerr_endline "hipec chaos: --transient-rate must lie in [0, 1)";
        exit 124
    | _ -> ());
    let base = if smoke then Chaos.smoke else Chaos.t3 in
    let config =
      {
        base with
        Chaos.seed;
        transient_rate = Option.value rate ~default:base.Chaos.transient_rate;
      }
    in
    let clean = Chaos.run ~faults:false config in
    let faulty = Chaos.run config in
    Format.printf "%a@." Chaos.pp_result faulty;
    Printf.printf "throughput degradation vs clean disk: %+.2f%%\n\n"
      (Chaos.degradation_percent ~clean ~faulty);
    print_endline faulty.Chaos.kstat;
    if
      faulty.Chaos.task_kills = 0 && faulty.Chaos.demotions >= 1
      && faulty.Chaos.audit_violations = 0
    then 0
    else 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the T3-style workload under disk fault injection: transient errors are \
          retried, bad swap blocks remapped, and a runaway policy demoted to the \
          default pageout policy.  Exits nonzero if any task dies or the kernel \
          auditor finds an invariant violation.")
    Term.(const run $ smoke $ seed $ rate)

(* ------------------------------------------------------------------ *)
(* storm                                                               *)
(* ------------------------------------------------------------------ *)

let storm_cmd =
  let smoke =
    Arg.(value & flag
        & info [ "smoke" ] ~doc:"100-tenant variant for CI (default is 1000 tenants).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Deterministic seed.")
  in
  let tenants =
    Arg.(value & opt (some int) None
        & info [ "tenants" ] ~docv:"N" ~doc:"Override the tenant count.")
  in
  let no_overload =
    Arg.(value & flag
        & info [ "no-overload" ]
            ~doc:
              "Disable the overload-protection stack (pressure levels, fuel ledger, \
               admission governor) — the unprotected baseline.")
  in
  let baseline =
    Arg.(value & flag
        & info [ "baseline" ]
            ~doc:"Greedy- and erring-free control run (all tenants honest).")
  in
  let fuel_quota =
    Arg.(value & opt (some int) None
        & info [ "fuel-quota" ] ~docv:"N"
            ~doc:"Per-tenant command budget per fuel window (0 disables the ledger).")
  in
  let run smoke seed tenants no_overload baseline fuel_quota =
    let base = if smoke then Storm.smoke else Storm.full in
    let config =
      {
        base with
        Storm.seed;
        tenants = Option.value tenants ~default:base.Storm.tenants;
        overload = base.Storm.overload && not no_overload;
        greedy_every = (if baseline then 0 else base.Storm.greedy_every);
        erring_every = (if baseline then 0 else base.Storm.erring_every);
        fuel_quota =
          (match fuel_quota with Some q -> Some q | None -> base.Storm.fuel_quota);
      }
    in
    (* the last late_tenants admissions arrive behind the hog and are
       shed: a storm no larger than that would admit nobody *)
    if config.Storm.tenants <= config.Storm.late_tenants then begin
      Printf.eprintf
        "--tenants must exceed the config's late_tenants (%d), or every tenant is \
         shed\n"
        config.Storm.late_tenants;
      exit 2
    end;
    let r = Storm.run config in
    Format.printf "%a@.@." Storm.pp_result r;
    print_endline r.Storm.kstat;
    (* honest tenants must survive the storm with the books balanced *)
    if
      r.Storm.conservation_ok && r.Storm.audit_violations = 0
      && r.Storm.honest_alive > 0
    then 0
    else 1
  in
  Cmd.v
    (Cmd.info "storm"
       ~doc:
         "Run the multi-tenant storm: hundreds to thousands of containers with mixed \
          honest/greedy/erring policies faulting under disk-fault traffic, with the \
          overload-protection stack engaged (pressure levels, per-tenant fuel \
          throttling, admission shedding, emergency seizure).  Exits nonzero on a \
          frame-conservation or isolation violation, or if no honest tenant survives.")
    Term.(const run $ smoke $ seed $ tenants $ no_overload $ baseline $ fuel_quota)

(* ------------------------------------------------------------------ *)
(* adversary                                                           *)
(* ------------------------------------------------------------------ *)

module Ev = Hipec_trace.Event

let adversary_config_term =
  let smoke =
    Arg.(value & flag
        & info [ "smoke" ] ~doc:"CI budget (200 random + 1200 mutation rounds).")
  in
  let policy =
    (* reject unknown names here so the search never raises on them *)
    let known =
      Arg.conv
        ( (fun s ->
            match Hipec_trace.Oracle.of_policy_name s with
            | Some _ -> Ok s
            | None ->
                Error
                  (`Msg
                    (Printf.sprintf "unknown policy %S (%s)" s policy_names))),
          Format.pp_print_string )
    in
    Arg.(value & opt (some known) None
        & info [ "policy" ] ~docv:"NAME"
            ~doc:(Printf.sprintf "Policy to attack: %s (default fifo)." policy_names))
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc:"Search seed.")
  in
  let frames_lo =
    Arg.(value & opt (some int) None
        & info [ "frames-lo" ] ~docv:"N" ~doc:"Smaller minFrame grant.")
  in
  let frames_hi =
    Arg.(value & opt (some int) None
        & info [ "frames-hi" ] ~docv:"N" ~doc:"Larger minFrame grant.")
  in
  let pages =
    Arg.(value & opt (some int) None
        & info [ "pages" ] ~docv:"N" ~doc:"Page alphabet size of candidate traces.")
  in
  let length =
    Arg.(value & opt (some int) None
        & info [ "length" ] ~docv:"N" ~doc:"Accesses per candidate trace.")
  in
  let random_rounds =
    Arg.(value & opt (some int) None
        & info [ "random" ] ~docv:"N" ~doc:"Random probes before the climb.")
  in
  let mutation_rounds =
    Arg.(value & opt (some int) None
        & info [ "mutation" ] ~docv:"N" ~doc:"Mutation hill-climb budget.")
  in
  let build smoke policy seed frames_lo frames_hi pages length random mutation =
    let base = if smoke then Adversary.smoke else Adversary.default in
    let ov v d = Option.value v ~default:d in
    let cfg =
      {
        Adversary.policy = ov policy base.Adversary.policy;
        seed = ov seed base.Adversary.seed;
        frames_lo = ov frames_lo base.Adversary.frames_lo;
        frames_hi = ov frames_hi base.Adversary.frames_hi;
        npages = ov pages base.Adversary.npages;
        length = ov length base.Adversary.length;
        random_rounds = ov random base.Adversary.random_rounds;
        mutation_rounds = ov mutation base.Adversary.mutation_rounds;
      }
    in
    if cfg.Adversary.frames_lo < 1 then Error "--frames-lo must be >= 1"
    else if cfg.Adversary.frames_hi <= cfg.Adversary.frames_lo then
      Error "--frames-hi must exceed --frames-lo"
    else if cfg.Adversary.npages < 1 || cfg.Adversary.length < 1 then
      Error "--pages and --length must be >= 1"
    else if cfg.Adversary.random_rounds < 1 then
      Error "--random must be >= 1 (the climb needs a starting trace)"
    else if cfg.Adversary.mutation_rounds < 0 then
      Error "--mutation must be >= 0"
    else Ok cfg
  in
  Term.(
    const build $ smoke $ policy $ seed $ frames_lo $ frames_hi $ pages $ length
    $ random_rounds $ mutation_rounds)

let print_outcome (o : Adversary.outcome) =
  let cfg = o.Adversary.o_config in
  Printf.printf "searched %d traces against %s (seed %d, %d vs %d frames, %d+%d rounds)\n"
    o.Adversary.o_traces_scored cfg.Adversary.policy cfg.Adversary.seed
    cfg.Adversary.frames_lo cfg.Adversary.frames_hi cfg.Adversary.random_rounds
    cfg.Adversary.mutation_rounds

let print_witness (w : Adversary.witness) =
  Format.printf "witness: %a@." Adversary.pp_accesses w.Adversary.w_accesses;
  Printf.printf "  oracle faults: %d at %d frames, %d at %d frames (ratio %.3f)\n"
    w.Adversary.w_faults_lo w.Adversary.w_frames_lo w.Adversary.w_faults_hi
    w.Adversary.w_frames_hi (Adversary.anomaly_ratio w)

let print_confirmation (c : Adversary.confirmation) =
  List.iter
    (fun (l : Adversary.confirmed_level) ->
      Printf.printf
        "  %d frames: oracle %d faults, interp %d (digest %s), compiled %d (digest %s)\n"
        l.Adversary.cl_frames l.Adversary.cl_oracle_faults
        l.Adversary.cl_interp.Adversary.x_faults
        (Tr.digest_hex l.Adversary.cl_interp.Adversary.x_digest)
        l.Adversary.cl_compiled.Adversary.x_faults
        (Tr.digest_hex l.Adversary.cl_compiled.Adversary.x_digest))
    [ c.Adversary.c_lo; c.Adversary.c_hi ];
  Printf.printf "  backends agree: %b, oracle-exact: %b, anomaly holds: %b\n"
    (Adversary.backends_agree c) (Adversary.matches_oracle c)
    (Adversary.anomaly_holds c)

(* Confirm a found witness end to end; on success optionally record it
   at both grants as .trace regression files.  Returns the exit code. *)
let confirm_and_save w save =
  match Adversary.confirm w with
  | Error e ->
      Printf.eprintf "confirmation failed: %s\n" e;
      1
  | Ok c ->
      print_confirmation c;
      if not (Adversary.confirmed c) then begin
        Printf.eprintf "witness did NOT survive end-to-end confirmation\n";
        1
      end
      else
        let save_level frames suffix =
          match Adversary.record_witness w ~frames with
          | Error e ->
              Printf.eprintf "recording at %d frames failed: %s\n" frames e;
              false
          | Ok r ->
              let path = Printf.sprintf "%s-%s.trace" save suffix in
              Tr.Recorded.save r ~path;
              Printf.printf "  wrote %s  (golden line: trace:%s %s %d)\n" path
                Filename.(remove_extension (basename path))
                (Tr.digest_hex r.Tr.Recorded.digest)
                (Array.length r.Tr.Recorded.events);
              true
        in
        if save = "" then 0
        else if
          save_level w.Adversary.w_frames_lo "lo" && save_level w.Adversary.w_frames_hi "hi"
        then 0
        else 1

let adversary_search_cmd =
  let save =
    Arg.(value & opt string ""
        & info [ "save" ] ~docv:"PREFIX"
            ~doc:"On a confirmed witness, record PREFIX-lo.trace and PREFIX-hi.trace \
                  and print their golden digest lines.")
  in
  let run cfg save =
    match cfg with
    | Error e ->
        Printf.eprintf "adversary: %s\n" e;
        1
    | Ok cfg -> (
        let o = Adversary.search cfg in
        print_outcome o;
        match o.Adversary.o_witness with
        | None ->
            Printf.printf "no anomaly witness found (best gap %d)\n"
              o.Adversary.o_best_gap;
            0
        | Some w ->
            print_witness w;
            confirm_and_save w save)
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Hunt for a Belady-anomaly witness against a policy: seeded random probes, \
          then a mutation hill-climb scored by the pure oracles; any witness found is \
          confirmed through the real executor on both backends.")
    Term.(const run $ adversary_config_term $ save)

let adversary_replay_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Witness .trace recordings.")
  in
  let run files =
    let replay_on backend path r =
      let saved = Executor.default_backend () in
      Executor.set_default_backend backend;
      Fun.protect
        ~finally:(fun () -> Executor.set_default_backend saved)
        (fun () ->
          match Trace_run.replay r with
          | Error e ->
              Printf.eprintf "%s [%s]: replay failed: %s\n" path
                (Executor.backend_name backend) e;
              false
          | Ok o ->
              if Trace_run.matches o then true
              else begin
                Printf.eprintf "%s [%s]: digest mismatch\n" path
                  (Executor.backend_name backend);
                Option.iter print_divergence o.Trace_run.divergence;
                false
              end)
    in
    let rows =
      List.map
        (fun path ->
          match load_recorded path with
          | None -> None
          | Some r ->
              let frames =
                Option.bind (Tr.Recorded.meta_find r "frames") int_of_string_opt
              in
              let faults = Trace_run.hipec_faults r in
              let ok =
                List.for_all
                  (fun b -> replay_on b path r)
                  [ Executor.Interp; Executor.Compiled ]
              in
              Printf.printf "%s: frames=%s faults=%d digest %s — %s\n" path
                (match frames with Some f -> string_of_int f | None -> "?")
                faults
                (Tr.digest_hex r.Tr.Recorded.digest)
                (if ok then "reproduced on both backends" else "FAILED");
              Some (ok, frames, faults))
        files
    in
    if List.mem None rows then 1
    else
      let rows = List.filter_map Fun.id rows in
      let all_ok = List.for_all (fun (ok, _, _) -> ok) rows in
      (* two recordings of the same witness at different grants pin the
         anomaly itself: more frames must still fault more *)
      let anomaly_ok =
        match rows with
        | [ (_, Some fa, faults_a); (_, Some fb, faults_b) ] when fa <> fb ->
            let (f_lo, n_lo), (f_hi, n_hi) =
              if fa < fb then ((fa, faults_a), (fb, faults_b))
              else ((fb, faults_b), (fa, faults_a))
            in
            if n_hi > n_lo then begin
              Printf.printf
                "anomaly pinned: %d faults at %d frames < %d faults at %d frames\n" n_lo
                f_lo n_hi f_hi;
              true
            end
            else begin
              Printf.eprintf
                "anomaly REGRESSED: %d faults at %d frames vs %d faults at %d frames\n"
                n_lo f_lo n_hi f_hi;
              false
            end
        | _ -> true
      in
      if all_ok && anomaly_ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "replay-witness"
       ~doc:
         "Replay recorded anomaly witnesses on both executor backends, requiring each \
          digest to reproduce; given the lo/hi pair of one witness, also re-checks \
          that the anomaly still holds.")
    Term.(const run $ files)

let adversary_report_cmd =
  let run cfg =
    match cfg with
    | Error e ->
        Printf.eprintf "adversary: %s\n" e;
        1
    | Ok cfg ->
    (* the attacked policy must fall... *)
    let fifo_cfg = { cfg with Adversary.policy = "fifo" } in
    let o = Adversary.search fifo_cfg in
    print_outcome o;
    let fifo_ok =
      match o.Adversary.o_witness with
      | None ->
          Printf.eprintf "REGRESSION: the search no longer finds a FIFO witness\n";
          false
      | Some w ->
          print_witness w;
          confirm_and_save w "" = 0
    in
    (* ...and the adaptive policy must stand, same budget *)
    let oa = Adversary.search { fifo_cfg with Adversary.policy = "adaptive" } in
    print_outcome oa;
    let adaptive_ok =
      match oa.Adversary.o_witness with
      | None ->
          Printf.printf "adaptive resists the same budget (best gap %d)\n"
            oa.Adversary.o_best_gap;
          true
      | Some w ->
          Printf.eprintf "REGRESSION: adaptive fell to the search\n";
          print_witness w;
          false
    in
    if fifo_ok && adaptive_ok then begin
      print_endline "adversary report: PASS";
      0
    end
    else 1
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "The regression gate: the search must find and confirm a FIFO witness, and \
          must find none against the adaptive policy at the same budget.  Exits \
          nonzero otherwise.")
    Term.(const run $ adversary_config_term)

let adversary_cmd =
  let default = Term.(ret (const (`Help (`Pager, Some "adversary")))) in
  Cmd.group ~default
    (Cmd.info "adversary"
       ~doc:
         "Adversarial trace search for Belady-anomaly witnesses: search for one, \
          replay recorded witnesses, or run the FIFO-falls/adaptive-stands regression \
          report.")
    [ adversary_search_cmd; adversary_replay_cmd; adversary_report_cmd ]

let () =
  (* HIPEC_LOG=debug|info|warning|error turns on kernel/manager/checker
     logging through the Logs reporter *)
  (match Sys.getenv_opt "HIPEC_LOG" with
  | Some level ->
      Logs.set_reporter (Logs_fmt.reporter ());
      Logs.set_level
        (match Logs.level_of_string level with Ok l -> l | Error _ -> Some Logs.Info)
  | None -> ());
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "hipec" ~version:"1.0.0"
      ~doc:
        "HiPEC: high performance external virtual memory caching (OSDI '94), simulated. \
         Set HIPEC_LOG=debug for kernel logging."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            translate_cmd; check_cmd; lint_cmd; assemble_cmd; disassemble_cmd; advise_cmd; join_cmd;
            aim_cmd; table3_cmd; table4_cmd; trace_cmd; stat_cmd; spans_cmd; chaos_cmd;
            storm_cmd; adversary_cmd;
          ]))
