(* Golden-trace digests: each named scenario under its fixed seed must
   reproduce the digest and event count pinned in golden/digests.txt.

   A mismatch means the simulation's observable event stream changed.
   If the change is intentional, regenerate the line with

     dune exec bin/hipec_cli.exe -- trace record --scenario NAME

   and update golden/digests.txt with the printed digest and count.

   Lines named "trace:NAME" pin checked-in recordings (golden/NAME.trace)
   instead of regenerable scenarios — the adversary's anomaly witnesses.
   Each must load with the pinned digest and replay digest-identically on
   both executor backends, and a lo/hi pair of the same witness must
   still fault more at the larger grant. *)

open Hipec_trace
open Hipec_workloads
open Hipec_core

(* found whether we run under `dune runtest` (cwd = test/) or by hand
   from the repository root *)
let golden_file =
  if Sys.file_exists "golden/digests.txt" then "golden/digests.txt"
  else "test/golden/digests.txt"

let read_golden () =
  let ic = open_in golden_file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc
        else
          match String.split_on_char ' ' line with
          | [ name; digest; events ] -> go ((name, digest, int_of_string events) :: acc)
          | _ -> failwith (golden_file ^ ": malformed line: " ^ line))
  in
  go []

let trace_prefix = "trace:"

let is_trace_line (name, _, _) =
  String.length name > String.length trace_prefix
  && String.sub name 0 (String.length trace_prefix) = trace_prefix

let trace_path name =
  let base = String.sub name (String.length trace_prefix)
      (String.length name - String.length trace_prefix) in
  Filename.concat (Filename.dirname golden_file) (base ^ ".trace")

let load_trace name =
  match Trace.Recorded.load ~path:(trace_path name) with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" (trace_path name) e

let with_backend b f =
  let saved = Executor.default_backend () in
  Executor.set_default_backend b;
  Fun.protect ~finally:(fun () -> Executor.set_default_backend saved) f

let check_trace (name, digest, events) () =
  let r = load_trace name in
  Alcotest.(check string)
    (name ^ ": digest")
    digest
    (Trace.digest_hex r.Trace.Recorded.digest);
  Alcotest.(check int) (name ^ ": event count") events
    (Array.length r.Trace.Recorded.events);
  List.iter
    (fun backend ->
      with_backend backend (fun () ->
          match Trace_run.replay r with
          | Error e -> Alcotest.failf "%s [%s]: %s" name (Executor.backend_name backend) e
          | Ok o ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: replay reproduces the recording on %s" name
                   (Executor.backend_name backend))
                true (Trace_run.matches o)))
    [ Executor.Interp; Executor.Compiled ]

(* lo/hi recordings of one witness, paired by their "-lo"/"-hi" suffix:
   the larger grant must still fault strictly more *)
let witness_pairs goldens =
  let strip suffix name =
    if Filename.check_suffix name suffix then Some (Filename.chop_suffix name suffix)
    else None
  in
  List.filter_map
    (fun (name, _, _) ->
      match strip "-lo" name with
      | Some stem when List.exists (fun (n, _, _) -> n = stem ^ "-hi") goldens ->
          Some stem
      | _ -> None)
    (List.filter is_trace_line goldens)

let check_anomaly stem () =
  let lo = load_trace (stem ^ "-lo") and hi = load_trace (stem ^ "-hi") in
  let frames r =
    match Option.bind (Trace.Recorded.meta_find r "frames") int_of_string_opt with
    | Some f -> f
    | None -> Alcotest.failf "%s: recording lacks frames metadata" stem
  in
  Alcotest.(check bool) (stem ^ ": hi grant is larger") true (frames hi > frames lo);
  let f_lo = Trace_run.hipec_faults lo and f_hi = Trace_run.hipec_faults hi in
  Alcotest.(check bool)
    (Printf.sprintf "%s: anomaly holds (%d faults at %d frames < %d at %d)" stem f_lo
       (frames lo) f_hi (frames hi))
    true (f_hi > f_lo)

let check_scenario (name, digest, events) () =
  let scenario =
    match Trace_run.scenario_of_name name with
    | Some s -> s
    | None -> Alcotest.fail ("unknown golden scenario " ^ name)
  in
  match Trace_run.record scenario with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check string)
        (name ^ ": digest")
        digest
        (Trace.digest_hex r.Trace.Recorded.digest);
      Alcotest.(check int) (name ^ ": event count") events
        (Array.length r.Trace.Recorded.events)

let () =
  let goldens = read_golden () in
  if goldens = [] then failwith (golden_file ^ " lists no scenarios");
  let traces, scenarios = List.partition is_trace_line goldens in
  Alcotest.run "golden"
    [
      ( "digests",
        List.map
          (fun ((name, _, _) as g) -> Alcotest.test_case name `Quick (check_scenario g))
          scenarios );
      ( "witnesses",
        List.map
          (fun ((name, _, _) as g) -> Alcotest.test_case name `Quick (check_trace g))
          traces
        @ List.map
            (fun stem ->
              Alcotest.test_case (stem ^ ": anomaly") `Quick (check_anomaly stem))
            (witness_pairs goldens) );
    ]
