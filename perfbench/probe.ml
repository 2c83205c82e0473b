(* The driver's instrument: a host clock around every public call the
   benchmark makes into the simulator, fault/hit classification from the
   kernel's own fault counter, failure accounting, and (traced runs
   only) boundary spans kept in memory. *)

open Hipec_vm

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable int buffer: no allocation per push once warm. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make (max 16 cap) 0; n = 0 }
  let length t = t.n

  let push t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let get t i = t.a.(i)
  let sub t = Array.sub t.a 0 t.n
end

type kind = Access_hit | Access_fault | Install | Audit_sweep | Drain

let kind_code = function
  | Access_hit -> 0
  | Access_fault -> 1
  | Install -> 2
  | Audit_sweep -> 3
  | Drain -> 4

type phase = Setup | Timed

let phase_code = function Setup -> 0 | Timed -> 1

type t = {
  traced : bool;
  slice_refs : int;  (** references per timed slice, a power of two *)
  marks : Ibuf.t;  (** host ns at the end of each full slice *)
  origin : int;  (** host ns when the probe was made *)
  mutable phase : phase;
  fault_ns : Ibuf.t;  (** host ns of every access that faulted *)
  mutable hits : int;
  mutable attempted : int;
  mutable failed : int;
  mutable designed_kills : int;  (** erring tenants killed by design *)
  mutable first_error : string option;
  spans : Ibuf.t;  (** traced only: two ints per span, see [span] *)
}

let create ~slice_refs ~traced =
  {
    traced;
    slice_refs;
    marks = Ibuf.create 1024;
    origin = now_ns ();
    phase = Setup;
    fault_ns = Ibuf.create 65_536;
    hits = 0;
    attempted = 0;
    failed = 0;
    designed_kills = 0;
    first_error = None;
    spans = Ibuf.create (if traced then 1 lsl 20 else 16);
  }

(* A span is two ints: [(start lsl 4) lor (kind lsl 1) lor phase], with
   [start] in ns since the probe was made, then the duration in ns. *)
let span t kind t0 t1 =
  Ibuf.push t.spans (((t0 - t.origin) lsl 4) lor (kind_code kind lsl 1) lor phase_code t.phase);
  Ibuf.push t.spans (t1 - t0)

let fail t msg =
  t.failed <- t.failed + 1;
  if t.first_error = None then t.first_error <- Some msg

(* One reference.  [may_die] marks a tenant whose policy is designed to
   err: the kernel killing it is the expected outcome, not a failure. *)
let access ?(may_die = false) t kernel task ~vpn ~write =
  let stats = Kernel.stats kernel in
  let f0 = stats.Kernel.faults in
  let t0 = now_ns () in
  (match Kernel.access_vpn kernel task ~vpn ~write with
  | () -> ()
  | exception Kernel.Task_terminated _ when may_die -> t.designed_kills <- t.designed_kills + 1
  | exception e -> fail t (Printexc.to_string e));
  let t1 = now_ns () in
  t.attempted <- t.attempted + 1;
  if t.attempted land (t.slice_refs - 1) = 0 then Ibuf.push t.marks t1;
  if stats.Kernel.faults <> f0 then begin
    Ibuf.push t.fault_ns (t1 - t0);
    if t.traced then span t Access_fault t0 t1
  end
  else begin
    t.hits <- t.hits + 1;
    if t.traced then span t Access_hit t0 t1
  end

(* Host ns of each slice of the timed phase that ran from [start] to
   [stop]: every [slice_refs] references, then the remainder. *)
let slices t ~start ~stop =
  let n = Ibuf.length t.marks in
  Array.init (n + 1) (fun i ->
      let b = if i = 0 then start else Ibuf.get t.marks (i - 1) in
      let e = if i = n then stop else Ibuf.get t.marks i in
      e - b)

(* Any other call into a layer: timed as a span of [kind]. *)
let call t kind f =
  let t0 = now_ns () in
  let r = f () in
  if t.traced then span t kind t0 (now_ns ());
  r

(* Durations in ns of every span of [kind]. *)
let durations t kind =
  let code = kind_code kind in
  let out = Ibuf.create 1024 in
  for i = 0 to (Ibuf.length t.spans / 2) - 1 do
    if (Ibuf.get t.spans (2 * i) lsr 1) land 7 = code then
      Ibuf.push out (Ibuf.get t.spans ((2 * i) + 1))
  done;
  Ibuf.sub out

(* The spans as little-endian int64 pairs, in the order recorded. *)
let write_spans t oc =
  let n = Ibuf.length t.spans in
  let b = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.of_int (Ibuf.get t.spans i))
  done;
  output_bytes oc b
