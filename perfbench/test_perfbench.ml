(* Tests for the benchmark's own instruments: the layer map, the
   sampler's attribution, the percentile refusal rule, and the join
   driver against the library's join. *)

open Perfbench

(* -- layer map ------------------------------------------------------ *)

(* Every .ml under lib/, as a module name.  The test runs in the build
   tree, where lib/ sits next to perfbench/. *)
let lib_modules () =
  let rec walk dir =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if entry <> "" && entry.[0] = '.' then acc
        else if Sys.is_directory path then walk path @ acc
        else if Filename.check_suffix entry ".ml" then Layers.module_of_file entry :: acc
        else acc)
      [] (Sys.readdir dir)
  in
  List.sort compare (walk "../lib")

let test_every_module_mapped () =
  let mods = lib_modules () in
  Alcotest.(check bool) "lib/ has modules" true (List.length mods > 40);
  List.iter
    (fun m ->
      if Layers.of_module m = None then Alcotest.failf "lib module %s maps to no layer" m)
    mods

let test_each_module_once () =
  let listed = List.concat_map snd Layers.table in
  let dups = List.filter (fun m -> List.length (List.filter (( = ) m) listed) > 1) listed in
  Alcotest.(check (list string)) "modules listed under two layers" [] (List.sort_uniq compare dups);
  let mods = lib_modules () in
  let stale = List.filter (fun m -> not (List.mem m mods)) listed in
  Alcotest.(check (list string)) "listed modules missing from lib/" [] stale

let test_of_file () =
  let layer = Alcotest.testable (fun f l -> Format.pp_print_string f (Layers.name l)) ( = ) in
  let check file want = Alcotest.(check (option layer)) file want (Layers.of_file file) in
  check "lib/vm/page_queue.ml" (Some Layers.Page_queue);
  check "lib/vm/audit.ml" (Some Layers.Audit);
  check "lib/machine/pmap.ml" (Some Layers.Kernel);
  check "lib/hipec/compiled.ml" (Some Layers.Executor);
  check "perfbench/join_mru.ml" (Some Layers.Driver);
  check "list.ml" None;
  check "stdlib/hashtbl.ml" None

(* -- sampler -------------------------------------------------------- *)

(* A busy loop inside a known module must be charged to its layer. *)
let test_busy_loop_attribution () =
  let open Hipec_machine in
  let open Hipec_vm in
  let n = 20_000 in
  let frames = Frame.Table.create ~total:n in
  let q = Page_queue.create "busy" in
  for i = 0 to n - 1 do
    Page_queue.enqueue_tail q (Vm_page.create ~frame:(Frame.Table.get frames i))
  done;
  Sampler.start ();
  let t0 = Sys.time () in
  while Sys.time () -. t0 < 1.5 do
    ignore (Page_queue.find_newest q)
  done;
  let by_layer = Sampler.stop () in
  let total = Array.fold_left ( + ) 0 by_layer in
  let pq = by_layer.(Layers.index Layers.Page_queue) in
  if total < 100 then Alcotest.failf "only %d samples in 1.5 s of CPU" total;
  if float_of_int pq < 0.9 *. float_of_int total then
    Alcotest.failf "page_queue got %d of %d samples" pq total

(* -- percentiles ---------------------------------------------------- *)

let test_percentile_refusal () =
  let result = Alcotest.(result (pair int int) int) in
  let upto n = Array.init n (fun i -> n - i) in
  Alcotest.check result "p50 of 100" (Ok (50, 100)) (Pct.percentile (upto 100) 0.50);
  Alcotest.check result "p90 of 100: ten beyond" (Ok (90, 100)) (Pct.percentile (upto 100) 0.90);
  Alcotest.check result "p95 of 100: five beyond" (Error 100) (Pct.percentile (upto 100) 0.95);
  Alcotest.check result "p99 of 999" (Error 999) (Pct.percentile (upto 999) 0.99);
  Alcotest.check result "p99 of 1000" (Ok (990, 1000)) (Pct.percentile (upto 1000) 0.99);
  Alcotest.check result "empty" (Error 0) (Pct.percentile [||] 0.5)

(* -- slice minima ---------------------------------------------------- *)

let test_minima () =
  let m = Minima.create () in
  Minima.add m [| 5; 9; 4 |];
  Minima.add m [| 7; 3; 4 |];
  Minima.add m [| 6; 8; 1 |];
  Alcotest.(check (array int)) "element-wise minima" [| 5; 3; 1 |] (Minima.get m);
  Alcotest.(check int) "sum" 9 (Minima.sum m);
  Alcotest.(check bool) "aligned" false (Minima.mismatch m);
  Minima.add m [| 1; 1 |];
  Alcotest.(check bool) "a shorter repetition is flagged" true (Minima.mismatch m);
  Alcotest.(check (array int)) "and left out" [| 5; 3; 1 |] (Minima.get m)

(* -- join driver ---------------------------------------------------- *)

(* At a small config the driver and Join.run agree exactly. *)
let test_join_cross_check () =
  let config =
    {
      Hipec_workloads.Join.default_config with
      outer_mb = 3;
      memory_mb = 2;
      inner_bytes = 256;
      total_frames = 2_048;
    }
  in
  let probe = Probe.create ~slice_refs:256 ~traced:false in
  let inst = Join_mru.setup ~config ~seed:5 probe in
  let c0 = Instance.counters inst.Instance.m in
  inst.Instance.timed probe;
  let d = Instance.diff c0 (Instance.counters inst.Instance.m) in
  Alcotest.(check (list string)) "output checks" [] (inst.Instance.check d);
  Alcotest.(check (list string)) "Join.run agrees" [] (Join_mru.cross_check ~config ~seed:5 d);
  Alcotest.(check int) "no failures" 0 probe.Probe.failed

let () =
  Alcotest.run "perfbench"
    [
      ( "layers",
        [
          Alcotest.test_case "every lib module maps to a layer" `Quick test_every_module_mapped;
          Alcotest.test_case "each module under one layer" `Quick test_each_module_once;
          Alcotest.test_case "frame files map to layers" `Quick test_of_file;
        ] );
      ( "sampler",
        [ Alcotest.test_case "busy loop charged to its layer" `Quick test_busy_loop_attribution ]
      );
      ( "percentiles",
        [ Alcotest.test_case "refused below ten beyond" `Quick test_percentile_refusal ] );
      ("minima", [ Alcotest.test_case "element-wise over repetitions" `Quick test_minima ]);
      ("join", [ Alcotest.test_case "driver matches Join.run" `Quick test_join_cross_check ]);
    ]
