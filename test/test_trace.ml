(* Tests for lib/trace: the event codec, the collector, the Recorded
   file format, and deterministic record/replay of scenarios. *)

open Hipec_trace
open Hipec_workloads
module T = Hipec_sim.Sim_time

(* ------------------------------------------------------------------ *)
(* Event codec                                                         *)
(* ------------------------------------------------------------------ *)

let payload_gen =
  let open QCheck.Gen in
  let id = int_bound 1_000 in
  let big = int_bound 5_000_000 in
  let kind =
    oneofl
      Event.[ Soft; Zero_fill; File_pagein; Cow; Hipec ]
  in
  let source = oneofl Event.[ Policy; Daemon ] in
  let outc = oneofl Event.[ Returned; Policy_error; Policy_timeout ] in
  let reason = oneofl [ ""; "timeout"; "runtime error: DeQueue from empty queue" ] in
  oneof
    [
      (fun t v w -> Event.Access { task = t; vpn = v; write = w }) <$> id <*> big <*> bool;
      (fun t v k l -> Event.Fault { task = t; vpn = v; kind = k; latency_ns = l })
      <$> id <*> big <*> kind <*> big;
      (fun t b -> Event.Pagein { task = t; block = b }) <$> id <*> big;
      (fun o off b -> Event.Pageout { obj_id = o; offset = off; block = b })
      <$> id <*> big <*> big;
      (fun s o off d -> Event.Evict { source = s; obj_id = o; offset = off; dirty = d })
      <$> source <*> id <*> big <*> bool;
      (fun c f -> Event.Grant { container = c; frames = f }) <$> id <*> id;
      (fun c f forced -> Event.Reclaim { container = c; frames = f; forced })
      <$> id <*> id <*> bool;
      (fun c e o n -> Event.Policy_run { container = c; event = e; outcome = o; commands = n })
      <$> id <*> int_bound 7 <*> outc <*> big;
      (fun c r -> Event.Demote { container = c; reason = r }) <$> id <*> reason;
      (fun b w a g -> Event.Io_retry { block = b; write = w; attempt = a; gave_up = g })
      <$> big <*> bool <*> int_bound 8 <*> bool;
      (fun b n w ok -> Event.Disk_io { block = b; nblocks = n; write = w; ok })
      <$> big <*> int_bound 64 <*> bool <*> bool;
      (fun v e -> Event.Map_op { vpn = v; enter = e }) <$> big <*> bool;
      (fun t r -> Event.Task_kill { task = t; reason = r }) <$> id <*> reason;
    ]

let event_gen =
  QCheck.Gen.(
    (fun time payload -> { Event.seq = 0; time = T.ns time; payload })
    <$> int_bound 100_000_000 <*> payload_gen)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"event codec round-trips" ~count:500
    (QCheck.make
       ~print:(fun evs -> String.concat "; " (List.map (Format.asprintf "%a" Event.pp) evs))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 20) event_gen))
    (fun events ->
      let events = List.mapi (fun seq ev -> { ev with Event.seq }) events in
      let b = Buffer.create 256 in
      List.iter (Event.encode b) events;
      let s = Buffer.contents b in
      let pos = ref 0 in
      let decoded = List.mapi (fun seq _ -> Event.decode s ~pos ~seq) events in
      !pos = String.length s && decoded = events)

(* ------------------------------------------------------------------ *)
(* Collector basics                                                    *)
(* ------------------------------------------------------------------ *)

let test_disabled_sink_is_inert () =
  Alcotest.(check bool) "off" false (Trace.on ());
  (* emitters must be a no-op without a collector, not an error *)
  Trace.access ~task:1 ~vpn:2 ~write:true;
  Trace.fault ~task:1 ~vpn:2 ~kind:Event.Soft ~latency_ns:0;
  Trace.demote ~container:0 ~reason:"x";
  Alcotest.(check bool) "still off" false (Trace.on ())

let test_collector_counts_and_ids () =
  let c = Trace.start ~store:true () in
  Trace.access ~task:7 ~vpn:1 ~write:false;
  Trace.access ~task:7 ~vpn:2 ~write:true;
  Trace.pagein ~task:7 ~block:99;
  ignore (Trace.stop ());
  Alcotest.(check int) "events" 3 (Trace.events_seen c);
  Alcotest.(check int) "access count" 2
    (Trace.counts c).(Event.tag (Event.Access { task = 0; vpn = 0; write = false }));
  let events = Trace.events c in
  Alcotest.(check int) "store holds all" 3 (Array.length events);
  (* normalization: first-seen task id 7 becomes 0 *)
  match events.(0).Event.payload with
  | Event.Access { task; vpn; write } ->
      Alcotest.(check int) "task normalized" 0 task;
      Alcotest.(check int) "vpn raw" 1 vpn;
      Alcotest.(check bool) "read" false write
  | _ -> Alcotest.fail "wrong payload"

let test_stop_restores_silence () =
  ignore (Trace.start ());
  ignore (Trace.stop ());
  Alcotest.(check bool) "off after stop" false (Trace.on ())

(* ------------------------------------------------------------------ *)
(* Record / replay determinism                                         *)
(* ------------------------------------------------------------------ *)

let small_cfg =
  { Trace_run.default_policy_cfg with Trace_run.npages = 64; frames = 16; count = 800 }

let record_ok sc =
  match Trace_run.record sc with Ok r -> r | Error e -> Alcotest.fail e

let test_same_seed_same_digest () =
  let r1 = record_ok (Trace_run.Policy small_cfg) in
  let r2 = record_ok (Trace_run.Policy small_cfg) in
  Alcotest.(check string) "digest"
    (Trace.digest_hex r1.Trace.Recorded.digest)
    (Trace.digest_hex r2.Trace.Recorded.digest);
  Alcotest.(check int) "events"
    (Array.length r1.Trace.Recorded.events)
    (Array.length r2.Trace.Recorded.events);
  Alcotest.(check bool) "nonempty" true (Array.length r1.Trace.Recorded.events > 0)

let test_different_seed_different_digest () =
  let r1 = record_ok (Trace_run.Policy small_cfg) in
  let r2 =
    record_ok (Trace_run.Policy { small_cfg with Trace_run.pattern = "zipf"; seed = 99 })
  in
  Alcotest.(check bool) "digests differ" false
    (Int64.equal r1.Trace.Recorded.digest r2.Trace.Recorded.digest)

let test_replay_reproduces_digest () =
  let r = record_ok (Trace_run.Policy { small_cfg with Trace_run.pattern = "zipf" }) in
  match Trace_run.replay r with
  | Error e -> Alcotest.fail e
  | Ok o ->
      Alcotest.(check bool) "digest reproduced" true (Trace_run.matches o);
      Alcotest.(check bool) "no divergence" true (o.Trace_run.divergence = None)

let test_workload_replay_reproduces_digest () =
  let r = record_ok (Trace_run.Named "join-small") in
  match Trace_run.replay r with
  | Error e -> Alcotest.fail e
  | Ok o -> Alcotest.(check bool) "digest reproduced" true (Trace_run.matches o)

(* ------------------------------------------------------------------ *)
(* Recorded file format                                                *)
(* ------------------------------------------------------------------ *)

let test_save_load_roundtrip () =
  let r = record_ok (Trace_run.Policy small_cfg) in
  let path = "roundtrip.trace" in
  Trace.Recorded.save r ~path;
  (match Trace.Recorded.load ~path with
  | Error e -> Alcotest.fail e
  | Ok r' ->
      Alcotest.(check string) "digest survives"
        (Trace.digest_hex r.Trace.Recorded.digest)
        (Trace.digest_hex r'.Trace.Recorded.digest);
      Alcotest.(check int) "events survive"
        (Array.length r.Trace.Recorded.events)
        (Array.length r'.Trace.Recorded.events);
      Alcotest.(check bool) "meta survives" true
        (Trace.Recorded.meta_find r' "pattern" = Some "cyclic");
      Alcotest.(check bool) "streams identical" true
        (Trace.Recorded.diff r r' = None));
  Sys.remove path

let test_load_detects_corruption () =
  let r = record_ok (Trace_run.Policy small_cfg) in
  let path = "corrupt.trace" in
  Trace.Recorded.save r ~path;
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string contents in
  (* flip a bit deep inside the event stream *)
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  (match Trace.Recorded.load ~path with
  | Ok _ -> Alcotest.fail "corruption not detected"
  | Error _ -> ());
  Sys.remove path

let test_diff_finds_first_divergence () =
  let r1 = record_ok (Trace_run.Policy small_cfg) in
  let r2 = record_ok (Trace_run.Policy { small_cfg with Trace_run.seed = 3 }) in
  Alcotest.(check bool) "self diff clean" true (Trace.Recorded.diff r1 r1 = None);
  if Int64.equal r1.Trace.Recorded.digest r2.Trace.Recorded.digest then
    Alcotest.fail "expected different digests"
  else
    match Trace.Recorded.diff r1 r2 with
    | None -> Alcotest.fail "digests differ but diff found nothing"
    | Some d ->
        Alcotest.(check bool) "seq within streams" true
          (d.Trace.Recorded.seq >= 0
          && d.Trace.Recorded.seq
             <= max
                  (Array.length r1.Trace.Recorded.events)
                  (Array.length r2.Trace.Recorded.events))

let test_json_export_parses_shape () =
  let r = record_ok (Trace_run.Policy small_cfg) in
  let json = Trace.Recorded.to_json r in
  Alcotest.(check bool) "has digest" true
    (let needle = Printf.sprintf "%S:%S" "digest" (Trace.digest_hex r.Trace.Recorded.digest) in
     let rec find i =
       i + String.length needle <= String.length json
       && (String.sub json i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "trace"
    [
      ("codec", qc [ prop_codec_roundtrip ]);
      ( "collector",
        [
          Alcotest.test_case "disabled sink inert" `Quick test_disabled_sink_is_inert;
          Alcotest.test_case "counts and id normalization" `Quick
            test_collector_counts_and_ids;
          Alcotest.test_case "stop restores silence" `Quick test_stop_restores_silence;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same digest" `Quick test_same_seed_same_digest;
          Alcotest.test_case "different seed different digest" `Quick
            test_different_seed_different_digest;
          Alcotest.test_case "replay reproduces digest" `Quick test_replay_reproduces_digest;
          Alcotest.test_case "workload replay reproduces digest" `Quick
            test_workload_replay_reproduces_digest;
        ] );
      ( "recorded",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "load detects corruption" `Quick test_load_detects_corruption;
          Alcotest.test_case "diff finds divergence" `Quick test_diff_finds_first_divergence;
          Alcotest.test_case "json export" `Quick test_json_export_parses_shape;
        ] );
    ]
