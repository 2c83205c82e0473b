open Hipec_sim

(* Span reconstruction works by tiling: a [Fault] event carries the
   window [time - latency_ns, time], and every event timestamp strictly
   inside it becomes a cut.  Each resulting interval is attributed from
   the events at its two boundaries, in a fixed priority order that
   mirrors where the emitters sit relative to their sim-time charges:

     - a [Policy_run] closes the executor's charge for that run, so an
       interval *ending* at one is policy execution;
     - a synchronous read's [Disk_io] is emitted before its transfer is
       charged, so an interval *starting* at one is the transfer;
     - an [Io_retry] (not given up) is emitted before its backoff charge;
     - an async writeback's [Disk_io] lands at completion, so an
       interval *ending* at one with no other explanation is a stall
       waiting on the laundry;
     - [Evict]/[Pageout] close reclaim-scan charges;
     - everything else is kernel bookkeeping ([Service]).

   Because the intervals partition the window, their durations sum to
   the fault's latency exactly — asserted per fault.  A HiPEC-kind
   fault whose window contains no [Policy_run] was served by the
   kernel-run default policy of a throttled tenant; its [Service] time
   is reclassified [Throttled]. *)

type segment_kind =
  | Policy
  | Disk_read
  | Backoff
  | Laundry_wait
  | Reclaim
  | Throttled
  | Service

let segment_kind_index = function
  | Policy -> 0
  | Disk_read -> 1
  | Backoff -> 2
  | Laundry_wait -> 3
  | Reclaim -> 4
  | Throttled -> 5
  | Service -> 6

let num_segment_kinds = 7

let segment_kind_name = function
  | Policy -> "policy"
  | Disk_read -> "disk-read"
  | Backoff -> "backoff"
  | Laundry_wait -> "laundry-wait"
  | Reclaim -> "reclaim"
  | Throttled -> "throttled"
  | Service -> "service"

type segment = { seg_kind : segment_kind; seg_start_ns : int; seg_stop_ns : int }

let seg_dur_ns s = s.seg_stop_ns - s.seg_start_ns

type t = {
  index : int;
  task : int;
  vpn : int;
  fault_kind : Event.fault_kind;
  start_ns : int;
  stop_ns : int;
  latency_ns : int;
  segments : segment array;
  policy_runs : int;
  disk_reads : int;
  retries : int;
}

let phases sp =
  let out = ref [] in
  Array.iter
    (fun s ->
      match !out with
      | (k, a, _, n) :: rest when k = s.seg_kind ->
          out := (k, a, s.seg_stop_ns, n + 1) :: rest
      | _ -> out := (s.seg_kind, s.seg_start_ns, s.seg_stop_ns, 1) :: !out)
    sp.segments;
  List.rev !out

let by_kind_ns sp =
  let a = Array.make num_segment_kinds 0 in
  Array.iter
    (fun s -> a.(segment_kind_index s.seg_kind) <- a.(segment_kind_index s.seg_kind) + seg_dur_ns s)
    sp.segments;
  a

(* ------------------------------------------------------------------ *)
(* Building                                                            *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable pending : Event.t list;  (* since the last closed window, newest first *)
  mutable spans_rev : t list;
  mutable nspans : int;
  mutable digest : int64;
  mutable kill_count : int;
  scratch : Buffer.t;
}

let create () =
  {
    pending = [];
    spans_rev = [];
    nspans = 0;
    digest = Trace.fnv_offset_basis;
    kill_count = 0;
    scratch = Buffer.create 128;
  }

(* One interval, attributed from its boundary events (priority order in
   the header comment).  These run once per segment on the online hot
   path, so they are direct recursions rather than closure-building
   combinators. *)
let rec has_policy_run = function
  | [] -> false
  | e :: r -> (
      match e.Event.payload with Event.Policy_run _ -> true | _ -> has_policy_run r)

let rec has_disk_read = function
  | [] -> false
  | e :: r -> (
      match e.Event.payload with
      | Event.Disk_io { write = false; _ } -> true
      | _ -> has_disk_read r)

let rec has_retry = function
  | [] -> false
  | e :: r -> (
      match e.Event.payload with
      | Event.Io_retry { gave_up = false; _ } -> true
      | _ -> has_retry r)

let rec has_disk_write = function
  | [] -> false
  | e :: r -> (
      match e.Event.payload with
      | Event.Disk_io { write = true; _ } -> true
      | _ -> has_disk_write r)

let rec has_reclaim = function
  | [] -> false
  | e :: r -> (
      match e.Event.payload with
      | Event.Evict _ | Event.Pageout _ -> true
      | _ -> has_reclaim r)

let classify ~prev ~next =
  if has_policy_run next then Policy
  else if has_disk_read prev then Disk_read
  else if has_retry prev then Backoff
  else if has_disk_write next then Laundry_wait
  else if has_reclaim next then Reclaim
  else Service

let digest_span b sp =
  Buffer.clear b.scratch;
  Event.put_varint b.scratch sp.task;
  Event.put_varint b.scratch sp.vpn;
  Buffer.add_char b.scratch (Char.chr (Event.fault_kind_code sp.fault_kind));
  Event.put_varint b.scratch sp.start_ns;
  Event.put_varint b.scratch sp.latency_ns;
  Event.put_varint b.scratch sp.policy_runs;
  Event.put_varint b.scratch sp.disk_reads;
  Event.put_varint b.scratch sp.retries;
  Event.put_varint b.scratch (Array.length sp.segments);
  Array.iter
    (fun s ->
      Buffer.add_char b.scratch (Char.chr (segment_kind_index s.seg_kind));
      Event.put_varint b.scratch (seg_dur_ns s))
    sp.segments;
  b.digest <- Trace.fnv1a b.digest b.scratch

let close b ev ~task ~vpn ~kind ~latency_ns =
  let stop = Sim_time.to_ns ev.Event.time in
  let start = stop - latency_ns in
  (* One pass over [pending] (newest first): events at or before the
     window start belong to the inter-fault gap (accesses, async
     completions) and carry no window time; the rest cons out oldest
     first, with the per-span counters picked up along the way. *)
  let policy_runs = ref 0 and disk_reads = ref 0 and retries = ref 0 in
  let inside =
    List.fold_left
      (fun acc e ->
        if Sim_time.to_ns e.Event.time > start then begin
          (match e.Event.payload with
          | Event.Policy_run _ -> incr policy_runs
          | Event.Disk_io { write = false; _ } -> incr disk_reads
          | Event.Io_retry { gave_up = false; _ } -> incr retries
          | _ -> ());
          e :: acc
        end
        else acc)
      [] b.pending
  in
  let policy_runs = !policy_runs and disk_reads = !disk_reads and retries = !retries in
  (* Streaming interval walk: group consecutive equal timestamps
     (events arrive in time order, all <= stop) and cut the window at
     each distinct interior timestamp.  A group's events classify the
     interval ending at it; order within a group never matters. *)
  let segs = ref [] in
  let cur = ref start and prev = ref [] in
  let push k a z =
    segs := { seg_kind = k; seg_start_ns = a; seg_stop_ns = z } :: !segs
  in
  if latency_ns > 0 then begin
    let grp = ref [] and grp_t = ref min_int in
    let flush () =
      match !grp with
      | [] -> ()
      | evs when !grp_t < stop ->
          if !grp_t > !cur then push (classify ~prev:!prev ~next:evs) !cur !grp_t;
          prev := evs;
          cur := !grp_t;
          grp := []
      | _ -> () (* a group at [stop] merges into the closing boundary *)
    in
    List.iter
      (fun e ->
        let t = Sim_time.to_ns e.Event.time in
        if t <> !grp_t then begin
          flush ();
          grp_t := t
        end;
        grp := e :: !grp)
      inside;
    flush ();
    if stop > !cur then push (classify ~prev:!prev ~next:(ev :: !grp)) !cur stop
  end;
  let segments = Array.of_list (List.rev !segs) in
  (* a HiPEC fault with no policy run was served by the throttled
     tenant's kernel-run default policy *)
  if kind = Event.Hipec && policy_runs = 0 then
    Array.iteri
      (fun i s ->
        if s.seg_kind = Service then segments.(i) <- { s with seg_kind = Throttled })
      segments;
  let total = Array.fold_left (fun a s -> a + seg_dur_ns s) 0 segments in
  if total <> latency_ns then
    failwith
      (Printf.sprintf
         "Span: window tiling sums to %d ns but fault %d recorded %d ns" total
         ev.Event.seq latency_ns);
  let sp =
    {
      index = b.nspans;
      task;
      vpn;
      fault_kind = kind;
      start_ns = start;
      stop_ns = stop;
      latency_ns;
      segments;
      policy_runs;
      disk_reads;
      retries;
    }
  in
  b.spans_rev <- sp :: b.spans_rev;
  b.nspans <- b.nspans + 1;
  digest_span b sp

let feed b ev =
  match ev.Event.payload with
  | Event.Fault { task; vpn; kind; latency_ns } ->
      close b ev ~task ~vpn ~kind ~latency_ns;
      b.pending <- []
  | Event.Task_kill _ ->
      b.kill_count <- b.kill_count + 1;
      b.pending <- ev :: b.pending
  | _ -> b.pending <- ev :: b.pending

let of_events events =
  let b = create () in
  Array.iter (feed b) events;
  b

let spans b = Array.of_list (List.rev b.spans_rev)
let digest b = b.digest
let fault_count b = b.nspans
let kills b = b.kill_count

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

module Agg = struct
  type row = {
    kind : segment_kind;
    total_ns : int;
    faults_touched : int;
    p50_ns : int;
    p90_ns : int;
    p99_ns : int;
  }

  type t' = {
    faults : int;
    total_latency_ns : int;
    lat_p50_ns : int;
    lat_p90_ns : int;
    lat_p99_ns : int;
    rows : row list;
    tail_rows : (segment_kind * int) list;
    tail_faults : int;
  }

  let all_kinds =
    [ Policy; Disk_read; Backoff; Laundry_wait; Reclaim; Throttled; Service ]

  let compute spans =
    let faults = Array.length spans in
    let latencies = Array.map (fun sp -> sp.latency_ns) spans in
    let per_fault = Array.map by_kind_ns spans in
    let pct = Stats.Percentile.of_ints in
    let rows =
      List.filter_map
        (fun kind ->
          let ki = segment_kind_index kind in
          let touched =
            Array.to_list per_fault
            |> List.filter_map (fun a -> if a.(ki) > 0 then Some a.(ki) else None)
          in
          match touched with
          | [] -> None
          | _ ->
              let samples = Array.of_list touched in
              Some
                {
                  kind;
                  total_ns = Array.fold_left ( + ) 0 samples;
                  faults_touched = Array.length samples;
                  p50_ns = pct samples 0.50;
                  p90_ns = pct samples 0.90;
                  p99_ns = pct samples 0.99;
                })
        all_kinds
      |> List.sort (fun a b -> compare (b.total_ns, a.kind) (a.total_ns, b.kind))
    in
    let lat_p99 = pct latencies 0.99 in
    let tail_idx = ref [] in
    Array.iteri (fun i l -> if faults > 0 && l >= lat_p99 then tail_idx := i :: !tail_idx) latencies;
    let tail_rows =
      List.filter_map
        (fun kind ->
          let ki = segment_kind_index kind in
          let total =
            List.fold_left (fun acc i -> acc + per_fault.(i).(ki)) 0 !tail_idx
          in
          if total > 0 then Some (kind, total) else None)
        all_kinds
      |> List.sort (fun (ka, a) (kb, b) -> compare (b, ka) (a, kb))
    in
    {
      faults;
      total_latency_ns = Array.fold_left ( + ) 0 latencies;
      lat_p50_ns = pct latencies 0.50;
      lat_p90_ns = pct latencies 0.90;
      lat_p99_ns = lat_p99;
      rows;
      tail_rows;
      tail_faults = List.length !tail_idx;
    }

  let pp fmt a =
    Format.fprintf fmt "@[<v>spans: %d faults, total latency %d ns (p50 %d, p90 %d, p99 %d)@,"
      a.faults a.total_latency_ns a.lat_p50_ns a.lat_p90_ns a.lat_p99_ns;
    if a.rows <> [] then begin
      Format.fprintf fmt "  %-13s %14s %7s %12s %12s %12s %8s@," "segment" "total ns"
        "share" "p50 ns" "p90 ns" "p99 ns" "faults";
      List.iter
        (fun r ->
          let share =
            if a.total_latency_ns = 0 then 0.
            else 100. *. float_of_int r.total_ns /. float_of_int a.total_latency_ns
          in
          Format.fprintf fmt "  %-13s %14d %6.1f%% %12d %12d %12d %8d@,"
            (segment_kind_name r.kind) r.total_ns share r.p50_ns r.p90_ns r.p99_ns
            r.faults_touched)
        a.rows;
      let tail_total = List.fold_left (fun acc (_, n) -> acc + n) 0 a.tail_rows in
      if tail_total > 0 then begin
        Format.fprintf fmt "  where the p99 went (%d tail faults >= %d ns):@,"
          a.tail_faults a.lat_p99_ns;
        List.iter
          (fun (k, n) ->
            Format.fprintf fmt "    %-13s %14d ns %6.1f%%@," (segment_kind_name k) n
              (100. *. float_of_int n /. float_of_int tail_total))
          a.tail_rows
      end
    end;
    Format.fprintf fmt "@]"
end

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

(* ns rendered as microseconds with a fixed three decimals, keeping the
   output free of float formatting variance *)
let us_of_ns b ns =
  Buffer.add_string b (Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000))

let perfetto_event b ~name ~cat ~tid ~start_ns ~dur_ns ~args =
  Buffer.add_string b (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":" name cat);
  us_of_ns b start_ns;
  Buffer.add_string b ",\"dur\":";
  us_of_ns b dur_ns;
  Buffer.add_string b (Printf.sprintf ",\"pid\":0,\"tid\":%d" tid);
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "\"%s\":%d" k v))
        args;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

let to_perfetto spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let emit f =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    f ()
  in
  Array.iter
    (fun sp ->
      emit (fun () ->
          perfetto_event b
            ~name:("fault:" ^ Event.fault_kind_name sp.fault_kind)
            ~cat:"fault" ~tid:sp.task ~start_ns:sp.start_ns ~dur_ns:sp.latency_ns
            ~args:
              [
                ("index", sp.index);
                ("vpn", sp.vpn);
                ("latency_ns", sp.latency_ns);
                ("policy_runs", sp.policy_runs);
                ("retries", sp.retries);
              ]);
      List.iter
        (fun (kind, a, z, nsegs) ->
          emit (fun () ->
              perfetto_event b ~name:(segment_kind_name kind) ~cat:"phase" ~tid:sp.task
                ~start_ns:a ~dur_ns:(z - a) ~args:[ ("segments", nsegs) ]);
          if nsegs > 1 then
            Array.iter
              (fun s ->
                if s.seg_kind = kind && s.seg_start_ns >= a && s.seg_stop_ns <= z then
                  emit (fun () ->
                      perfetto_event b
                        ~name:(segment_kind_name kind ^ "#")
                        ~cat:"segment" ~tid:sp.task ~start_ns:s.seg_start_ns
                        ~dur_ns:(seg_dur_ns s) ~args:[]))
              sp.segments)
        (phases sp))
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let json_span b sp =
  Buffer.add_string b
    (Printf.sprintf
       "{\"index\":%d,\"task\":%d,\"vpn\":%d,\"kind\":\"%s\",\"start_ns\":%d,\"latency_ns\":%d,\"policy_runs\":%d,\"disk_reads\":%d,\"retries\":%d,\"segments\":["
       sp.index sp.task sp.vpn (Event.fault_kind_name sp.fault_kind) sp.start_ns
       sp.latency_ns sp.policy_runs sp.disk_reads sp.retries);
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"kind\":\"%s\",\"start_ns\":%d,\"dur_ns\":%d}"
           (segment_kind_name s.seg_kind) s.seg_start_ns (seg_dur_ns s)))
    sp.segments;
  Buffer.add_string b "]}"

let to_json ?(include_spans = true) ?only_task builder =
  let sps = spans builder in
  let sps =
    match only_task with
    | None -> sps
    | Some t -> Array.of_seq (Seq.filter (fun sp -> sp.task = t) (Array.to_seq sps))
  in
  let a = Agg.compute sps in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"digest\":\"%016Lx\",\"faults\":%d,\"kills\":%d,\"total_latency_ns\":%d,\"lat_p50_ns\":%d,\"lat_p90_ns\":%d,\"lat_p99_ns\":%d,\"rows\":["
       builder.digest a.Agg.faults builder.kill_count a.Agg.total_latency_ns
       a.Agg.lat_p50_ns a.Agg.lat_p90_ns a.Agg.lat_p99_ns);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"kind\":\"%s\",\"total_ns\":%d,\"faults\":%d,\"p50_ns\":%d,\"p90_ns\":%d,\"p99_ns\":%d}"
           (segment_kind_name r.Agg.kind) r.Agg.total_ns r.Agg.faults_touched
           r.Agg.p50_ns r.Agg.p90_ns r.Agg.p99_ns))
    a.Agg.rows;
  Buffer.add_string b
    (Printf.sprintf "],\"tail_faults\":%d,\"tail\":[" a.Agg.tail_faults);
  List.iteri
    (fun i (k, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"kind\":\"%s\",\"total_ns\":%d}" (segment_kind_name k) n))
    a.Agg.tail_rows;
  Buffer.add_string b "]";
  if include_spans then begin
    Buffer.add_string b ",\"spans\":[";
    Array.iteri
      (fun i sp ->
        if i > 0 then Buffer.add_string b ",\n";
        json_span b sp)
      sps;
    Buffer.add_string b "]"
  end;
  Buffer.add_string b "}\n";
  Buffer.contents b

let pp_span fmt sp =
  Format.fprintf fmt "@[<v>#%d task=%d vpn=%d %s %d ns @@%d ns" sp.index sp.task
    sp.vpn (Event.fault_kind_name sp.fault_kind) sp.latency_ns sp.start_ns;
  List.iter
    (fun (kind, a, z, nsegs) ->
      Format.fprintf fmt "@,  %-13s %12d ns%s" (segment_kind_name kind) (z - a)
        (if nsegs > 1 then Printf.sprintf " (%d segments)" nsegs else ""))
    (phases sp);
  Format.fprintf fmt "@]"
