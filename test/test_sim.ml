(* Tests for the discrete-event simulation substrate (lib/sim). *)

module T = Hipec_sim.Sim_time
module Rng = Hipec_sim.Rng
module Eq = Hipec_sim.Event_queue
module Engine = Hipec_sim.Engine
module Stats = Hipec_sim.Stats

(* ------------------------------------------------------------------ *)
(* Sim_time                                                            *)
(* ------------------------------------------------------------------ *)

let test_time_constructors () =
  Alcotest.(check int) "us" 1_000 (T.to_ns (T.us 1));
  Alcotest.(check int) "ms" 1_000_000 (T.to_ns (T.ms 1));
  Alcotest.(check int) "sec" 1_000_000_000 (T.to_ns (T.sec 1));
  Alcotest.(check int) "of_us_f rounds" 1_500 (T.to_ns (T.of_us_f 1.5));
  Alcotest.(check int) "of_ms_f" 2_500_000 (T.to_ns (T.of_ms_f 2.5));
  Alcotest.(check int) "of_sec_f" 500_000_000 (T.to_ns (T.of_sec_f 0.5))

let test_time_arithmetic () =
  let a = T.us 5 and b = T.us 3 in
  Alcotest.(check int) "add" 8_000 (T.to_ns (T.add a b));
  Alcotest.(check int) "sub" 2_000 (T.to_ns (T.sub a b));
  Alcotest.(check int) "diff sym" (T.to_ns (T.diff a b)) (T.to_ns (T.diff b a));
  Alcotest.(check int) "mul" 15_000 (T.to_ns (T.mul a 3));
  Alcotest.(check int) "div" 2_500 (T.to_ns (T.div a 2));
  Alcotest.(check bool) "lt" true T.(b < a);
  Alcotest.(check bool) "ge" true T.(a >= b)

let test_time_negative_rejected () =
  Alcotest.check_raises "ns -1" (Invalid_argument "Sim_time.ns: negative") (fun () ->
      ignore (T.ns (-1)));
  Alcotest.check_raises "sub underflow" (Invalid_argument "Sim_time.sub: negative result")
    (fun () -> ignore (T.sub (T.us 1) (T.us 2)))

let test_time_conversions () =
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (T.to_ms_f (T.of_ms_f 1.5));
  Alcotest.(check (float 1e-9)) "to_min" 2.0 (T.to_min_f (T.sec 120))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_copy_independent () =
  let a = Rng.create ~seed:7 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 17);
    let w = Rng.int_in r ~lo:5 ~hi:9 in
    Alcotest.(check bool) "int_in range" true (w >= 5 && w <= 9);
    let f = Rng.float r 3.0 in
    Alcotest.(check bool) "float range" true (f >= 0. && f < 3.0)
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:11 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    let x = Rng.exponential r ~mean:4.0 in
    Alcotest.(check bool) "non-negative" true (x >= 0.);
    total := !total +. x
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (mean > 3.7 && mean < 4.3)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Event_queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_eq_ordering () =
  let q = Eq.create () in
  Eq.add q ~time:(T.us 3) "c";
  Eq.add q ~time:(T.us 1) "a";
  Eq.add q ~time:(T.us 2) "b";
  let pop () = match Eq.pop q with Some (_, x) -> x | None -> Alcotest.fail "empty" in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "drained" true (Eq.is_empty q)

let test_eq_fifo_ties () =
  let q = Eq.create () in
  for i = 0 to 9 do
    Eq.add q ~time:(T.us 5) i
  done;
  for i = 0 to 9 do
    match Eq.pop q with
    | Some (_, x) -> Alcotest.(check int) "tie order" i x
    | None -> Alcotest.fail "unexpected empty"
  done

let test_eq_random_sorted () =
  let r = Rng.create ~seed:99 in
  let q = Eq.create () in
  let times = Array.init 500 (fun _ -> Rng.int r 10_000) in
  Array.iter (fun t -> Eq.add q ~time:(T.ns t) t) times;
  Alcotest.(check int) "length" 500 (Eq.length q);
  let last = ref (-1) in
  let rec drain () =
    match Eq.pop q with
    | None -> ()
    | Some (t, _) ->
        Alcotest.(check bool) "monotone" true (T.to_ns t >= !last);
        last := T.to_ns t;
        drain ()
  in
  drain ()

let test_eq_peek_does_not_remove () =
  let q = Eq.create () in
  Eq.add q ~time:(T.us 1) 1;
  (match Eq.peek q with Some (_, 1) -> () | _ -> Alcotest.fail "peek");
  Alcotest.(check int) "still there" 1 (Eq.length q)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_advance () =
  let e = Engine.create () in
  Engine.advance e (T.us 10);
  Engine.advance e (T.us 5);
  Alcotest.(check int) "clock" 15_000 (T.to_ns (Engine.now e))

let test_engine_schedule_order () =
  let e = Engine.create () in
  let log = ref [] in
  let record tag _engine = log := tag :: !log in
  ignore (Engine.schedule e ~after:(T.us 2) (record "b"));
  ignore (Engine.schedule e ~after:(T.us 1) (record "a"));
  ignore (Engine.schedule e ~after:(T.us 3) (record "c"));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "final clock" 3_000 (T.to_ns (Engine.now e))

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let fired = ref 0 in
  let rec chain n _engine =
    incr fired;
    if n > 1 then ignore (Engine.schedule e ~after:(T.us 1) (chain (n - 1)))
  in
  ignore (Engine.schedule e ~after:(T.us 1) (chain 5));
  Engine.run e;
  Alcotest.(check int) "all fired" 5 !fired;
  Alcotest.(check int) "clock advanced" 5_000 (T.to_ns (Engine.now e))

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~after:(T.us 1) (fun _ -> fired := true) in
  Engine.cancel e h;
  Alcotest.(check int) "no pending" 0 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "not fired" false !fired

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~after:(T.us 1) (fun _ -> fired := 1 :: !fired));
  ignore (Engine.schedule e ~after:(T.us 10) (fun _ -> fired := 10 :: !fired));
  Engine.run_until e (T.us 5);
  Alcotest.(check (list int)) "only early event" [ 1 ] !fired;
  Alcotest.(check int) "clock at limit" 5_000 (T.to_ns (Engine.now e));
  Engine.run e;
  Alcotest.(check (list int)) "late event eventually" [ 10; 1 ] !fired

let test_engine_advance_past_event () =
  (* An [advance] that overshoots a pending event must not move the
     clock backward when that event later fires. *)
  let e = Engine.create () in
  let seen = ref T.zero in
  ignore (Engine.schedule e ~after:(T.us 2) (fun e -> seen := Engine.now e));
  Engine.advance e (T.us 10);
  Engine.run e;
  Alcotest.(check int) "fires at >= advanced clock" 10_000 (T.to_ns !seen)

let test_engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Engine.schedule e ~after:(T.us 1) (fun e ->
           incr count;
           if !count = 3 then Engine.stop e))
  done;
  Engine.run e;
  Alcotest.(check int) "stopped early" 3 !count

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

(* The log-2 histogram's shared accumulator: every sample is counted,
   negatives underflow and samples at or past the top edge (2^3 with
   four buckets) overflow. *)
let test_histogram () =
  let h = Stats.Histogram.create_log ~buckets:4 () in
  List.iter (Stats.Histogram.add h) [ -1.; 0.; 0.5; 1.5; 3.9; 4.0; 7.; 8.; 300. ];
  Alcotest.(check int) "count" 9 (Stats.Histogram.count h);
  Alcotest.(check int) "underflow" 1 (Stats.Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Stats.Histogram.overflow h);
  Alcotest.(check (array int)) "buckets" [| 2; 1; 1; 2 |] (Stats.Histogram.bucket_counts h);
  Alcotest.(check (float 0.)) "min" (-1.) (Stats.Histogram.min h);
  Alcotest.(check (float 0.)) "max" 300. (Stats.Histogram.max h)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"event_queue pops sorted" ~count:200
    QCheck.(list (int_bound 100_000))
    (fun times ->
      let q = Eq.create () in
      List.iter (fun t -> Eq.add q ~time:(T.ns t) t) times;
      let rec drain acc =
        match Eq.pop q with None -> List.rev acc | Some (t, _) -> drain (T.to_ns t :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare times)

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"rng int_in stays in range" ~count:500
    QCheck.(triple small_int small_int small_int)
    (fun (seed, a, b) ->
      let lo = min a b and hi = max a b in
      let r = Rng.create ~seed in
      let v = Rng.int_in r ~lo ~hi in
      v >= lo && v <= hi)

let prop_histogram_mean_bounded =
  QCheck.Test.make ~name:"histogram mean within min..max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let h = Stats.Histogram.create_log () in
      List.iter (Stats.Histogram.add h) xs;
      let m = Stats.Histogram.mean h in
      m >= Stats.Histogram.min h -. 1e-9 && m <= Stats.Histogram.max h +. 1e-9)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "sim_time",
        [
          Alcotest.test_case "constructors" `Quick test_time_constructors;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "negative rejected" `Quick test_time_negative_rejected;
          Alcotest.test_case "conversions" `Quick test_time_conversions;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_eq_ordering;
          Alcotest.test_case "fifo ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "random sorted" `Quick test_eq_random_sorted;
          Alcotest.test_case "peek" `Quick test_eq_peek_does_not_remove;
        ] );
      ( "engine",
        [
          Alcotest.test_case "advance" `Quick test_engine_advance;
          Alcotest.test_case "schedule order" `Quick test_engine_schedule_order;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "advance past event" `Quick test_engine_advance_past_event;
          Alcotest.test_case "stop" `Quick test_engine_stop;
        ] );
      ( "stats",
        [
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "properties",
        qc [ prop_event_queue_sorted; prop_rng_int_in_range; prop_histogram_mean_bounded ] );
    ]
