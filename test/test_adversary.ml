(* The adversarial trace search: the seeded engine must find a FIFO
   Belady-anomaly witness at the CI smoke budget, the witness must
   survive end-to-end confirmation through the real executor
   (oracle-exact), and the same budget must
   come up empty against the adaptive policy. *)

open Hipec_sim
open Hipec_workloads
module A = Adversary
module Oracle = Hipec_trace.Oracle

let test_classic_belady_scores () =
  let f3 = (Oracle.fifo ~frames:3 A.classic_belady).Oracle.faults in
  let f4 = (Oracle.fifo ~frames:4 A.classic_belady).Oracle.faults in
  Alcotest.(check (pair int int)) "classic witness faults" (9, 10) (f3, f4)

let search_fifo () = A.search A.smoke

let witness_exn o =
  match o.A.o_witness with
  | Some w -> w
  | None ->
      Alcotest.failf "no witness (best gap %d over %d traces)" o.A.o_best_gap
        o.A.o_traces_scored

let test_search_finds_fifo_witness () =
  let o = search_fifo () in
  let w = witness_exn o in
  Alcotest.(check bool) "fault count strictly increases with frames" true
    (w.A.w_faults_hi > w.A.w_faults_lo);
  Alcotest.(check string) "policy" "fifo" w.A.w_policy;
  (* the gap reported is the one the oracle reproduces *)
  Alcotest.(check int) "gap consistent" o.A.o_best_gap
    (w.A.w_faults_hi - w.A.w_faults_lo)

let test_search_deterministic () =
  let o1 = search_fifo () and o2 = search_fifo () in
  Alcotest.(check int) "same best gap" o1.A.o_best_gap o2.A.o_best_gap;
  Alcotest.(check int) "same work" o1.A.o_traces_scored o2.A.o_traces_scored;
  let w1 = witness_exn o1 and w2 = witness_exn o2 in
  Alcotest.(check bool) "same witness trace" true (w1.A.w_accesses = w2.A.w_accesses)

let test_search_beats_random_sampling () =
  (* gaps of uniformly random traces are almost never positive: the
     p90 of a 200-trace random sample stays <= 0 while the climb finds
     a strictly positive witness — the mutation phase earns its keep *)
  let rng = Rng.create ~seed:99 in
  let cfg = A.smoke in
  let gaps =
    Array.init 200 (fun _ ->
        let trace =
          Array.init cfg.A.length (fun _ ->
              { Oracle.page = Rng.int rng cfg.A.npages; write = false })
        in
        (Oracle.fifo ~frames:cfg.A.frames_hi trace).Oracle.faults
        - (Oracle.fifo ~frames:cfg.A.frames_lo trace).Oracle.faults)
  in
  Alcotest.(check bool) "random p90 gap <= 0" true
    (Test_support.percentile gaps 0.9 <= 0);
  let o = search_fifo () in
  Alcotest.(check bool) "searched gap > 0" true (o.A.o_best_gap > 0)

let test_confirm_witness_end_to_end () =
  let w = witness_exn (search_fifo ()) in
  match A.confirm w with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Alcotest.(check bool) "executor faults match the oracle" true
        (A.matches_oracle c);
      Alcotest.(check bool) "anomaly holds on the real executor" true
        (A.anomaly_holds c);
      Alcotest.(check bool) "confirmed" true (A.confirmed c)

let test_confirm_digest_is_recorded_digest () =
  (* confirm replays through the recording harness, so at each grant
     its digest is the one record_witness pins *)
  let w =
    {
      A.w_policy = "fifo";
      w_frames_lo = 3;
      w_frames_hi = 4;
      w_faults_lo = 9;
      w_faults_hi = 10;
      w_accesses = A.classic_belady;
    }
  in
  match A.confirm w with
  | Error e -> Alcotest.fail e
  | Ok c ->
      List.iter
        (fun (l : A.confirmed_level) ->
          match A.record_witness w ~frames:l.A.cl_frames with
          | Error e -> Alcotest.fail e
          | Ok r ->
              let hex = Hipec_trace.Trace.digest_hex in
              Alcotest.(check string)
                (Printf.sprintf "%d frames" l.A.cl_frames)
                (hex r.Hipec_trace.Trace.Recorded.digest)
                (hex l.A.cl_run.A.x_digest))
        [ c.A.c_lo; c.A.c_hi ];
      Alcotest.(check bool) "confirmed" true (A.confirmed c)

let test_adaptive_resists_same_budget () =
  let o = A.search { A.smoke with A.policy = "adaptive" } in
  Alcotest.(check bool)
    (Printf.sprintf "no adaptive witness (best gap %d)" o.A.o_best_gap)
    true
    (o.A.o_witness = None);
  Alcotest.(check bool) "best gap never positive" true (o.A.o_best_gap <= 0)

let test_adaptive_resists_full_budget () =
  let o = A.search { A.default with A.policy = "adaptive" } in
  Alcotest.(check bool)
    (Printf.sprintf "no adaptive witness at full budget (best gap %d)" o.A.o_best_gap)
    true
    (o.A.o_witness = None)

(* The gate [hipec adversary report] and [hipec-bench adversary] share,
   on copies of the smoke-budget outcomes: silent on the real pair, and
   one message for each broken check. *)
let test_gate () =
  let fifo = search_fifo () in
  let adaptive = A.search { A.smoke with A.policy = "adaptive" } in
  let w = witness_exn fifo in
  let check name expected ~fifo ~adaptive =
    Alcotest.(check (list string)) name expected (A.failures ~fifo ~adaptive)
  in
  check "passes" [] ~fifo ~adaptive;
  check "no FIFO witness"
    [ "the search no longer finds a FIFO witness" ]
    ~fifo:{ fifo with A.o_witness = None } ~adaptive;
  check "witness the executor does not reproduce"
    [ "the FIFO witness did not survive end-to-end confirmation" ]
    ~fifo:{ fifo with A.o_witness = Some { w with A.w_faults_hi = w.A.w_faults_hi + 1 } }
    ~adaptive;
  check "adaptive falls"
    [ "the adaptive policy fell to the search" ]
    ~fifo ~adaptive:{ adaptive with A.o_witness = Some w };
  check "adaptive searched at another budget"
    [ "the adaptive search ran at a different budget" ]
    ~fifo
    ~adaptive:{ adaptive with A.o_config = { adaptive.A.o_config with A.mutation_rounds = 1 } };
  check "two broken checks"
    [
      "the search no longer finds a FIFO witness";
      "the adaptive policy fell to the search";
    ]
    ~fifo:{ fifo with A.o_witness = None }
    ~adaptive:{ adaptive with A.o_witness = Some w }

let test_record_replay_roundtrip () =
  let w = witness_exn (search_fifo ()) in
  match A.record_witness w ~frames:w.A.w_frames_lo with
  | Error e -> Alcotest.fail e
  | Ok recorded -> (
      match Trace_run.replay recorded with
      | Error e -> Alcotest.fail e
      | Ok outcome ->
          Alcotest.(check bool) "replay digest matches" true
            (Trace_run.matches outcome))

let () =
  Alcotest.run "adversary"
    [
      ( "search",
        [
          Alcotest.test_case "classic Belady witness scores 9/10" `Quick
            test_classic_belady_scores;
          Alcotest.test_case "finds a FIFO witness at smoke budget" `Quick
            test_search_finds_fifo_witness;
          Alcotest.test_case "seeded search is deterministic" `Quick
            test_search_deterministic;
          Alcotest.test_case "climb beats random sampling" `Quick
            test_search_beats_random_sampling;
        ] );
      ( "confirmation",
        [
          Alcotest.test_case "witness confirmed end to end" `Quick
            test_confirm_witness_end_to_end;
          Alcotest.test_case "record/replay roundtrip" `Quick
            test_record_replay_roundtrip;
          Alcotest.test_case "digests match record_witness" `Quick
            test_confirm_digest_is_recorded_digest;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "no witness at the smoke budget" `Quick
            test_adaptive_resists_same_budget;
          Alcotest.test_case "no witness at the full budget" `Slow
            test_adaptive_resists_full_budget;
        ] );
      ("gate", [ Alcotest.test_case "failures names each broken check" `Quick test_gate ]);
    ]
