(* Tests for the workload layer: trace generators, the nested-loop join
   (Figure 6), the AIM-style throughput benchmark (Figure 5), and the
   Table 3/4 drivers. *)

open Hipec_workloads
open Hipec_vm
module T = Hipec_sim.Sim_time
module Rng = Hipec_sim.Rng

(* ------------------------------------------------------------------ *)
(* Access traces                                                       *)
(* ------------------------------------------------------------------ *)

let test_trace_shapes () =
  let seq = Access_trace.sequential ~npages:5 ~write:false in
  Alcotest.(check (list int)) "sequential" [ 0; 1; 2; 3; 4 ]
    (Array.to_list (Array.map (fun a -> a.Access_trace.page) seq));
  let cyc = Access_trace.cyclic ~npages:3 ~loops:2 ~write:true in
  Alcotest.(check (list int)) "cyclic" [ 0; 1; 2; 0; 1; 2 ]
    (Array.to_list (Array.map (fun a -> a.Access_trace.page) cyc));
  Alcotest.(check bool) "cyclic writes" true (Array.for_all (fun a -> a.Access_trace.write) cyc);
  let str = Access_trace.strided ~npages:10 ~stride:3 ~count:4 ~write:false in
  Alcotest.(check (list int)) "strided" [ 0; 3; 6; 9 ]
    (Array.to_list (Array.map (fun a -> a.Access_trace.page) str))

let test_trace_zipf_skew () =
  let rng = Rng.create ~seed:42 in
  let trace = Access_trace.zipf rng ~npages:100 ~count:20_000 ~theta:0.99 ~write_ratio:0. in
  let counts = Array.make 100 0 in
  Array.iter (fun a -> counts.(a.Access_trace.page) <- counts.(a.Access_trace.page) + 1) trace;
  Alcotest.(check bool) "page 0 is hottest" true
    (Array.for_all (fun c -> counts.(0) >= c) counts);
  Alcotest.(check bool) "head heavy" true (counts.(0) > counts.(50) * 5)

let test_trace_working_set_bounds () =
  let rng = Rng.create ~seed:9 in
  let trace =
    Access_trace.working_set_phases rng ~npages:200 ~phases:4 ~phase_len:100 ~ws_pages:20
  in
  Alcotest.(check int) "length" 400 (Array.length trace);
  Array.iter
    (fun a ->
      Alcotest.(check bool) "in range" true
        (a.Access_trace.page >= 0 && a.Access_trace.page < 200))
    trace

let test_trace_replay_counts_faults () =
  let config = { Kernel.default_config with total_frames = 64 } in
  let k = Kernel.create ~config () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:10 in
  let trace = Access_trace.cyclic ~npages:10 ~loops:3 ~write:false in
  let faults = Access_trace.faults_during k task region trace in
  Alcotest.(check int) "each page faults once" 10 faults

(* ------------------------------------------------------------------ *)
(* Join (Figure 6)                                                     *)
(* ------------------------------------------------------------------ *)

let test_join_formulas_match_paper () =
  (* the paper's own numbers at the default parameters *)
  let c60 = { Join.default_config with Join.outer_mb = 60 } in
  Alcotest.(check int) "PF_l at 60MB" 983_040 (Join.predicted_faults `Lru c60);
  Alcotest.(check int) "PF_m at 60MB" ((5_120 * 63) + 15_360) (Join.predicted_faults `Mru c60);
  let c40 = { Join.default_config with Join.outer_mb = 40 } in
  Alcotest.(check int) "fits: both once" (Join.predicted_faults `Lru c40)
    (Join.predicted_faults `Mru c40);
  Alcotest.(check int) "fits: once" 10_240 (Join.predicted_faults `Mru c40)

let small_join outer memory =
  {
    Join.default_config with
    Join.outer_mb = outer;
    memory_mb = memory;
    total_frames = 4_096;
  }

let test_join_lru_measured_matches_formula () =
  let c = small_join 10 6 in
  let r = Join.run Join.Kernel_default c in
  let predicted = Join.predicted_faults `Lru c in
  Alcotest.(check int) "LRU faults exactly cyclic" predicted r.Join.faults

let test_join_mru_measured_matches_formula () =
  let c = small_join 10 6 in
  let r = Join.run Join.Hipec_mru c in
  let predicted = Join.predicted_faults `Mru c in
  let diff = abs (r.Join.faults - predicted) in
  Alcotest.(check bool)
    (Printf.sprintf "MRU faults %d ~ %d" r.Join.faults predicted)
    true
    (diff * 50 <= predicted)

let test_join_mru_beats_lru_when_oversubscribed () =
  let c = small_join 10 6 in
  let lru = Join.run Join.Kernel_default c in
  let mru = Join.run Join.Hipec_mru c in
  Alcotest.(check bool) "MRU faster" true T.(mru.Join.elapsed < lru.Join.elapsed);
  Alcotest.(check bool) "at least 2x" true
    (T.to_sec_f lru.Join.elapsed /. T.to_sec_f mru.Join.elapsed > 2.0)

let test_join_no_gap_when_fits () =
  let c = small_join 4 6 in
  let lru = Join.run Join.Kernel_default c in
  let mru = Join.run Join.Hipec_mru c in
  Alcotest.(check int) "lru faults = pages" (Join.outer_pages c) lru.Join.faults;
  Alcotest.(check int) "mru faults = pages" (Join.outer_pages c) mru.Join.faults;
  let ratio = T.to_sec_f lru.Join.elapsed /. T.to_sec_f mru.Join.elapsed in
  Alcotest.(check bool)
    (Printf.sprintf "elapsed within 10%% (ratio %.3f)" ratio)
    true
    (ratio > 0.9 && ratio < 1.1)

let test_join_output_size () =
  let c = small_join 4 6 in
  let r = Join.run Join.Hipec_mru c in
  (* every outer tuple joins against every inner tuple *)
  let outer_tuples = Join.outer_pages c * (4096 / c.Join.tuple_bytes) in
  Alcotest.(check int) "output tuples" (outer_tuples * Join.loops c) r.Join.output_tuples

let test_join_gain_formula () =
  let c = small_join 10 6 in
  let gain = Join.predicted_gain c (T.of_ms_f 8.0) in
  Alcotest.(check bool) "gain positive" true T.(gain > T.zero);
  let c_fits = small_join 4 6 in
  Alcotest.(check int) "no gain when resident" 0
    (T.to_ns (Join.predicted_gain c_fits (T.of_ms_f 8.0)))

(* ------------------------------------------------------------------ *)
(* AIM (Figure 5)                                                      *)
(* ------------------------------------------------------------------ *)

let aim_cfg ?(users = 2) ?(mix = Aim.Standard) ?(hipec = false) () =
  {
    Aim.default_config with
    Aim.users;
    mix;
    hipec_kernel = hipec;
    duration = T.sec 20;
  }

let test_aim_completes_jobs () =
  let r = Aim.run (aim_cfg ()) in
  Alcotest.(check bool) "jobs done" true (r.Aim.jobs_completed > 0);
  Alcotest.(check bool) "throughput positive" true (r.Aim.jobs_per_minute > 0.);
  Alcotest.(check bool) "cpu was busy" true T.(r.Aim.cpu_busy > T.zero);
  Alcotest.(check bool) "disk was busy" true T.(r.Aim.disk_busy > T.zero)

let test_aim_deterministic () =
  let a = Aim.run (aim_cfg ()) in
  let b = Aim.run (aim_cfg ()) in
  Alcotest.(check int) "same jobs" a.Aim.jobs_completed b.Aim.jobs_completed;
  Alcotest.(check int) "same faults" a.Aim.faults b.Aim.faults

let test_aim_multiprogramming_raises_throughput () =
  let one = Aim.run (aim_cfg ~users:1 ()) in
  let four = Aim.run (aim_cfg ~users:4 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "4 users (%.0f) beat 1 (%.0f)" four.Aim.jobs_per_minute
       one.Aim.jobs_per_minute)
    true
    (four.Aim.jobs_per_minute > one.Aim.jobs_per_minute *. 1.2)

let test_aim_oversubscription_degrades () =
  let peak = Aim.run (aim_cfg ~users:4 ~mix:Aim.Memory_heavy ()) in
  let crowded = Aim.run (aim_cfg ~users:14 ~mix:Aim.Memory_heavy ()) in
  Alcotest.(check bool) "paging at 14 users" true (crowded.Aim.faults > peak.Aim.faults * 2);
  Alcotest.(check bool)
    (Printf.sprintf "throughput degraded (%.0f -> %.0f)" peak.Aim.jobs_per_minute
       crowded.Aim.jobs_per_minute)
    true
    (crowded.Aim.jobs_per_minute < peak.Aim.jobs_per_minute)

let test_aim_specific_users_protected () =
  (* beyond the paper: under heavy memory pressure, users that manage
     their own private frame list keep their throughput while
     non-specific users thrash *)
  let cfg =
    {
      Aim.default_config with
      Aim.users = 10;
      mix = Aim.Memory_heavy;
      duration = T.sec 20;
      hipec_kernel = true;
      specific_users = 3;
    }
  in
  let r = Aim.run cfg in
  let specific_rate = float_of_int r.Aim.specific_jobs_completed /. 3. in
  let other_rate = float_of_int (r.Aim.jobs_completed - r.Aim.specific_jobs_completed) /. 7. in
  Alcotest.(check bool) "everyone made progress" true
    (r.Aim.specific_jobs_completed > 0
    && r.Aim.jobs_completed > r.Aim.specific_jobs_completed);
  Alcotest.(check bool)
    (Printf.sprintf "specific users ahead per capita (%.1f vs %.1f)" specific_rate
       other_rate)
    true
    (specific_rate > other_rate *. 1.2)

let test_aim_specific_requires_hipec_kernel () =
  let cfg = { Aim.default_config with Aim.users = 2; specific_users = 1 } in
  Alcotest.check_raises "guard"
    (Invalid_argument "Aim.run: specific users need the HiPEC kernel") (fun () ->
      ignore (Aim.run cfg))

let test_aim_hipec_kernel_equivalent () =
  (* Figure 5's claim: the modified kernel's throughput matches *)
  List.iter
    (fun mix ->
      let plain = Aim.run (aim_cfg ~users:6 ~mix ()) in
      let hipec = Aim.run (aim_cfg ~users:6 ~mix ~hipec:true ()) in
      let delta =
        abs_float (plain.Aim.jobs_per_minute -. hipec.Aim.jobs_per_minute)
        /. plain.Aim.jobs_per_minute
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s mix within 2%% (%.3f)" (Aim.mix_name mix) delta)
        true (delta < 0.02))
    [ Aim.Standard; Aim.Disk_heavy; Aim.Memory_heavy ]

(* ------------------------------------------------------------------ *)
(* Tables 3 and 4                                                      *)
(* ------------------------------------------------------------------ *)

let test_table3_no_io_shape () =
  let mach = Driver.table3_run ~pages:2048 Driver.Mach ~with_disk_io:false in
  let hipec = Driver.table3_run ~pages:2048 Driver.Hipec ~with_disk_io:false in
  Alcotest.(check int) "mach faults" 2048 mach.Driver.faults;
  Alcotest.(check int) "hipec faults" 2048 hipec.Driver.faults;
  let overhead = Driver.overhead_percent ~baseline:mach ~subject:hipec in
  Alcotest.(check bool)
    (Printf.sprintf "overhead %.2f%% in [1, 3]" overhead)
    true
    (overhead > 1.0 && overhead < 3.0)

let test_table3_io_drowns_overhead () =
  let mach = Driver.table3_run ~pages:2048 Driver.Mach ~with_disk_io:true in
  let hipec = Driver.table3_run ~pages:2048 Driver.Hipec ~with_disk_io:true in
  let overhead = Driver.overhead_percent ~baseline:mach ~subject:hipec in
  Alcotest.(check bool)
    (Printf.sprintf "overhead %.3f%% < 0.5%%" overhead)
    true
    (overhead >= 0.0 && overhead < 0.5);
  (* with I/O the run is an order of magnitude slower *)
  let no_io = Driver.table3_run ~pages:2048 Driver.Mach ~with_disk_io:false in
  Alcotest.(check bool) "io dominates" true
    (T.to_ms_f mach.Driver.elapsed > 5. *. T.to_ms_f no_io.Driver.elapsed)

let test_table4_values () =
  let t4 = Driver.table4_run () in
  Alcotest.(check int) "syscall 19us" 19_000 (T.to_ns t4.Driver.null_syscall);
  Alcotest.(check int) "ipc 292us" 292_000 (T.to_ns t4.Driver.null_ipc);
  Alcotest.(check int) "3-command fast path" 3 t4.Driver.fast_path_commands;
  Alcotest.(check int) "150ns" 150 (T.to_ns t4.Driver.hipec_fast_path);
  (* the ordering claim of Table 4 *)
  Alcotest.(check bool) "fast path << syscall << ipc" true
    T.(t4.Driver.hipec_fast_path < t4.Driver.null_syscall
      && t4.Driver.null_syscall < t4.Driver.null_ipc)

let test_trace_record_roundtrip () =
  (* recording a replay reproduces the trace (modulo the TLB-style
     dedup of consecutive identical references) *)
  let config = { Kernel.default_config with total_frames = 256 } in
  let k = Kernel.create ~config () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:20 in
  let original = Access_trace.cyclic ~npages:20 ~loops:2 ~write:false in
  let (), recorded =
    Access_trace.record k task region (fun () ->
        Access_trace.replay k task region original)
  in
  Alcotest.(check int) "same length" (Array.length original) (Array.length recorded);
  Alcotest.(check bool) "same pages" true
    (Array.for_all2
       (fun a b -> a.Access_trace.page = b.Access_trace.page)
       original recorded);
  (* and advising on the recording picks MRU, as for the raw trace *)
  Alcotest.(check string) "advice from real behaviour" "MRU"
    (Policy_sim.policy_name (Policy_sim.advise ~frames:10 recorded))

let test_trace_record_filters_other_regions () =
  let config = { Kernel.default_config with total_frames = 256 } in
  let k = Kernel.create ~config () in
  let task = Kernel.create_task k () in
  let watched = Kernel.vm_allocate k task ~npages:10 in
  let other = Kernel.vm_allocate k task ~npages:10 in
  let (), recorded =
    Access_trace.record k task watched (fun () ->
        Kernel.touch_region k task other ~write:false;
        Kernel.access_vpn k task ~vpn:watched.Vm_map.start_vpn ~write:true)
  in
  Alcotest.(check int) "only the watched reference" 1 (Array.length recorded);
  Alcotest.(check bool) "write recorded" true recorded.(0).Access_trace.write

(* ------------------------------------------------------------------ *)
(* Offline policy simulation (Policy_sim)                              *)
(* ------------------------------------------------------------------ *)

let test_policy_sim_cyclic_shapes () =
  (* the textbook results on a cyclic scan larger than memory *)
  let trace = Access_trace.cyclic ~npages:10 ~loops:5 ~write:false in
  Alcotest.(check int) "LRU thrashes" 50 (Policy_sim.faults Policy_sim.Lru ~frames:6 trace);
  Alcotest.(check int) "FIFO thrashes" 50 (Policy_sim.faults Policy_sim.Fifo ~frames:6 trace);
  (* ideal MRU keeps a stable prefix (and one wrapped survivor), far
     below the thrashing policies; on a pure cycle it equals OPT *)
  let mru = Policy_sim.faults Policy_sim.Mru ~frames:6 trace in
  Alcotest.(check int) "MRU keeps a prefix" 26 mru;
  Alcotest.(check int) "OPT = MRU on a cycle" mru
    (Policy_sim.faults Policy_sim.Opt ~frames:6 trace)

let test_policy_sim_fits_in_memory () =
  let trace = Access_trace.cyclic ~npages:8 ~loops:4 ~write:false in
  List.iter
    (fun p ->
      Alcotest.(check int) (Policy_sim.policy_name p) 8
        (Policy_sim.faults p ~frames:8 trace))
    Policy_sim.all_policies

let test_policy_sim_advise () =
  let cyclic = Access_trace.cyclic ~npages:20 ~loops:4 ~write:false in
  Alcotest.(check string) "cyclic wants MRU" "MRU"
    (Policy_sim.policy_name (Policy_sim.advise ~frames:10 cyclic));
  let rng = Rng.create ~seed:4 in
  let zipf = Access_trace.zipf rng ~npages:100 ~count:2_000 ~theta:1.1 ~write_ratio:0. in
  let advice = Policy_sim.advise ~frames:20 zipf in
  Alcotest.(check bool)
    (Printf.sprintf "skewed wants recency (%s)" (Policy_sim.policy_name advice))
    true
    (advice = Policy_sim.Lru || advice = Policy_sim.Clock)

(* Faults of the live kernel running the named policy over [trace],
   recorded through the policy-scenario harness. *)
let live_faults ~policy ~frames trace =
  let cfg =
    {
      Trace_run.default_policy_cfg with
      Trace_run.npages = 40;
      frames;
      policy;
      count = Array.length trace;
    }
  in
  match Trace_run.record_accesses cfg trace with
  | Error e -> Alcotest.fail e
  | Ok recorded -> Trace_run.hipec_faults recorded

let test_policy_sim_matches_live_kernel () =
  (* the offline model and the live HiPEC policies agree exactly *)
  let npages = 40 and frames = 16 in
  let traces =
    [
      ("cyclic", Access_trace.cyclic ~npages ~loops:3 ~write:false);
      ( "zipf",
        Access_trace.zipf (Rng.create ~seed:8) ~npages ~count:300 ~theta:0.9
          ~write_ratio:0. );
      ( "random",
        Access_trace.uniform_random (Rng.create ~seed:9) ~npages ~count:300
          ~write_ratio:0. );
    ]
  in
  List.iter
    (fun (name, trace) ->
      List.iter
        (fun (policy, model) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s live = offline" name policy)
            (Policy_sim.faults model ~frames trace)
            (live_faults ~policy ~frames trace))
        [ ("fifo", Policy_sim.Fifo); ("lru", Policy_sim.Lru); ("mru", Policy_sim.Mru) ])
    traces

let test_policy_sim_clock_matches_live () =
  (* the live CLOCK policy (simple commands rotating the active queue)
     against the offline model, exactly *)
  let live ~frames trace = live_faults ~policy:"clock" ~frames trace in
  (* reference bits matter here: the kernel sets a page's bit when its
     fault resolves, so it faults 8 times where a ring whose new pages
     start unreferenced faults 7 *)
  let reuse =
    Array.map
      (fun page -> { Access_trace.page; write = false })
      [| 0; 1; 2; 0; 3; 0; 4; 1; 0; 2 |]
  in
  Alcotest.(check int) "reuse: kernel CLOCK faults" 8 (live ~frames:3 reuse);
  let npages = 40 in
  List.iter
    (fun (name, frames, trace) ->
      Alcotest.(check int)
        (name ^ ": CLOCK live = offline")
        (Policy_sim.faults Policy_sim.Clock ~frames trace)
        (live ~frames trace))
    [
      ("reuse", 3, reuse);
      ("cyclic", 16, Access_trace.cyclic ~npages ~loops:3 ~write:false);
      ( "zipf",
        16,
        Access_trace.zipf (Rng.create ~seed:12) ~npages ~count:400 ~theta:0.9
          ~write_ratio:0. );
    ]

let prop_opt_is_lower_bound =
  QCheck.Test.make ~name:"OPT lower-bounds every online policy" ~count:60
    QCheck.(triple (int_range 1 20) (int_range 1 40) (int_bound 10_000))
    (fun (frames, npages, seed) ->
      let rng = Rng.create ~seed in
      let trace =
        Access_trace.uniform_random rng ~npages ~count:200 ~write_ratio:0.3
      in
      let opt = Policy_sim.faults Policy_sim.Opt ~frames trace in
      List.for_all
        (fun p -> Policy_sim.faults p ~frames trace >= opt)
        [ Policy_sim.Fifo; Policy_sim.Lru; Policy_sim.Mru; Policy_sim.Clock ])

let prop_faults_bounded =
  QCheck.Test.make ~name:"fault counts within [distinct, length]" ~count:60
    QCheck.(pair (int_range 1 16) (int_bound 10_000))
    (fun (frames, seed) ->
      let rng = Rng.create ~seed in
      let trace = Access_trace.zipf rng ~npages:30 ~count:150 ~theta:0.7 ~write_ratio:0. in
      let distinct =
        Array.fold_left
          (fun acc a -> if List.mem a.Access_trace.page acc then acc else a.Access_trace.page :: acc)
          [] trace
        |> List.length
      in
      List.for_all
        (fun p ->
          let f = Policy_sim.faults p ~frames trace in
          f >= distinct && f <= Array.length trace)
        Policy_sim.all_policies)

(* ------------------------------------------------------------------ *)
(* Mechanism comparison                                                *)
(* ------------------------------------------------------------------ *)

let mech_cfg = { Mechanism.default_config with Mechanism.pages = 128; frames = 64; passes = 2 }

let test_mechanism_same_fault_behaviour () =
  (* identical policy and workload: every mechanism sees the same faults *)
  let rs =
    List.map
      (fun m -> Mechanism.run m mech_cfg)
      [ Mechanism.Hipec_interpreted; Mechanism.Upcall; Mechanism.Ipc_pager ]
  in
  match rs with
  | [ a; b; c ] ->
      Alcotest.(check int) "hipec = upcall faults" a.Mechanism.faults b.Mechanism.faults;
      Alcotest.(check int) "hipec = ipc faults" a.Mechanism.faults c.Mechanism.faults;
      Alcotest.(check bool) "replacement happened" true
        (a.Mechanism.faults > mech_cfg.Mechanism.pages)
  | _ -> Alcotest.fail "unexpected"

let test_mechanism_ordering () =
  (* the paper's Table 4 argument: interpretation < upcall << IPC *)
  let e m = T.to_ns (Mechanism.run m mech_cfg).Mechanism.elapsed in
  let hipec = e Mechanism.Hipec_interpreted in
  let upcall = e Mechanism.Upcall in
  let ipc = e Mechanism.Ipc_pager in
  Alcotest.(check bool) "hipec < upcall" true (hipec < upcall);
  Alcotest.(check bool) "upcall < ipc" true (upcall < ipc)

let test_mechanism_crossing_accounting () =
  let r = Mechanism.run Mechanism.Upcall mech_cfg in
  (* two null syscalls per decision *)
  Alcotest.(check int) "crossing time = decisions x 38us"
    (r.Mechanism.replacement_decisions * 38_000)
    (T.to_ns r.Mechanism.crossing_time)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_lru_join_always_matches_formula =
  QCheck.Test.make ~name:"join LRU fault formula" ~count:8
    QCheck.(pair (int_range 2 8) (int_range 2 8))
    (fun (outer, memory) ->
      let c =
        {
          Join.default_config with
          Join.outer_mb = outer;
          memory_mb = memory;
          inner_bytes = 512;  (* 8 scans to keep runs quick *)
          total_frames = 4_096;
        }
      in
      let r = Join.run Join.Kernel_default c in
      r.Join.faults = Join.predicted_faults `Lru c)

let prop_trace_generators_in_range =
  QCheck.Test.make ~name:"trace pages stay in range" ~count:100
    QCheck.(triple (int_range 1 50) (int_range 1 200) small_int)
    (fun (npages, count, seed) ->
      let rng = Rng.create ~seed in
      let traces =
        [
          Access_trace.uniform_random rng ~npages ~count ~write_ratio:0.5;
          Access_trace.zipf rng ~npages ~count ~theta:0.8 ~write_ratio:0.2;
        ]
      in
      List.for_all
        (Array.for_all (fun a -> a.Access_trace.page >= 0 && a.Access_trace.page < npages))
        traces)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "workloads"
    [
      ( "traces",
        [
          Alcotest.test_case "shapes" `Quick test_trace_shapes;
          Alcotest.test_case "zipf skew" `Quick test_trace_zipf_skew;
          Alcotest.test_case "working set bounds" `Quick test_trace_working_set_bounds;
          Alcotest.test_case "replay counts faults" `Quick test_trace_replay_counts_faults;
          Alcotest.test_case "record roundtrip" `Quick test_trace_record_roundtrip;
          Alcotest.test_case "record filters" `Quick test_trace_record_filters_other_regions;
        ] );
      ( "join",
        [
          Alcotest.test_case "formulas match paper" `Quick test_join_formulas_match_paper;
          Alcotest.test_case "lru measured = formula" `Quick
            test_join_lru_measured_matches_formula;
          Alcotest.test_case "mru measured ~ formula" `Quick
            test_join_mru_measured_matches_formula;
          Alcotest.test_case "mru beats lru" `Quick test_join_mru_beats_lru_when_oversubscribed;
          Alcotest.test_case "no gap when fits" `Quick test_join_no_gap_when_fits;
          Alcotest.test_case "output size" `Quick test_join_output_size;
          Alcotest.test_case "gain formula" `Quick test_join_gain_formula;
        ] );
      ( "aim",
        [
          Alcotest.test_case "completes jobs" `Quick test_aim_completes_jobs;
          Alcotest.test_case "deterministic" `Quick test_aim_deterministic;
          Alcotest.test_case "multiprogramming helps" `Quick
            test_aim_multiprogramming_raises_throughput;
          Alcotest.test_case "oversubscription degrades" `Quick
            test_aim_oversubscription_degrades;
          Alcotest.test_case "hipec kernel equivalent" `Quick test_aim_hipec_kernel_equivalent;
          Alcotest.test_case "specific users protected" `Quick
            test_aim_specific_users_protected;
          Alcotest.test_case "specific requires hipec" `Quick
            test_aim_specific_requires_hipec_kernel;
        ] );
      ( "policy_sim",
        [
          Alcotest.test_case "cyclic shapes" `Quick test_policy_sim_cyclic_shapes;
          Alcotest.test_case "fits in memory" `Quick test_policy_sim_fits_in_memory;
          Alcotest.test_case "advise" `Quick test_policy_sim_advise;
          Alcotest.test_case "matches live kernel" `Quick test_policy_sim_matches_live_kernel;
          Alcotest.test_case "clock matches live" `Quick test_policy_sim_clock_matches_live;
        ] );
      ( "mechanism",
        [
          Alcotest.test_case "same fault behaviour" `Quick test_mechanism_same_fault_behaviour;
          Alcotest.test_case "ordering" `Quick test_mechanism_ordering;
          Alcotest.test_case "crossing accounting" `Quick test_mechanism_crossing_accounting;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table 3 no io" `Quick test_table3_no_io_shape;
          Alcotest.test_case "table 3 with io" `Quick test_table3_io_drowns_overhead;
          Alcotest.test_case "table 4" `Quick test_table4_values;
        ] );
      ( "properties",
        qc
          [
            prop_lru_join_always_matches_formula;
            prop_trace_generators_in_range;
            prop_opt_is_lower_bound;
            prop_faults_bounded;
          ] );
    ]
