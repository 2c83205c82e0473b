open Hipec_sim

(* Per-id-space normalization: raw kernel ids come from global counters
   that survive across runs in one process; digests must not. *)
let space_task = 0
let space_obj = 1
let space_container = 2

type collector = {
  mutable seq : int;
  counts : int array;
  mutable digest : int64;
  scratch : Buffer.t;
  store : Buffer.t option;
  mutable clock : unit -> Sim_time.t;
  norm : (int * int, int) Hashtbl.t;
  next_norm : int array;
  (* online span building and other live consumers hang here; [None]
     costs one match per push and nothing at all while no collector is
     installed *)
  mutable consumer : (Event.t -> unit) option;
}

let current : collector option ref = ref None
let enabled = ref false
let on () = !enabled
let active () = !current

let fnv_offset_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a h (b : Buffer.t) =
  let h = ref h in
  for i = 0 to Buffer.length b - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Buffer.nth b i))))
        fnv_prime
  done;
  !h

let start ?(store = false) ?clock () =
  let c =
    {
      seq = 0;
      counts = Array.make Event.num_categories 0;
      digest = fnv_offset_basis;
      scratch = Buffer.create 64;
      store = (if store then Some (Buffer.create 4096) else None);
      clock = Option.value clock ~default:(fun () -> Sim_time.zero);
      norm = Hashtbl.create 64;
      next_norm = Array.make 3 0;
      consumer = None;
    }
  in
  current := Some c;
  enabled := true;
  c

let stop () =
  let c = !current in
  current := None;
  enabled := false;
  c

let set_clock f = match !current with Some c -> c.clock <- f | None -> ()
let set_consumer f = match !current with Some c -> c.consumer <- f | None -> ()

let push c payload =
  let ev = { Event.seq = c.seq; time = c.clock (); payload } in
  c.seq <- c.seq + 1;
  c.counts.(Event.tag payload) <- c.counts.(Event.tag payload) + 1;
  Buffer.clear c.scratch;
  Event.encode c.scratch ev;
  c.digest <- fnv1a c.digest c.scratch;
  (match c.store with Some b -> Buffer.add_buffer b c.scratch | None -> ());
  match c.consumer with Some f -> f ev | None -> ()

let norm c space raw =
  match Hashtbl.find_opt c.norm (space, raw) with
  | Some v -> v
  | None ->
      let v = c.next_norm.(space) in
      c.next_norm.(space) <- v + 1;
      Hashtbl.add c.norm (space, raw) v;
      v

let with_c f = match !current with Some c -> f c | None -> ()

let access ~task ~vpn ~write =
  with_c (fun c -> push c (Event.Access { task = norm c space_task task; vpn; write }))

let fault ~task ~vpn ~kind ~latency_ns =
  with_c (fun c ->
      push c (Event.Fault { task = norm c space_task task; vpn; kind; latency_ns }))

let pagein ~task ~block =
  with_c (fun c -> push c (Event.Pagein { task = norm c space_task task; block }))

let pageout ~obj ~offset ~block =
  with_c (fun c ->
      push c (Event.Pageout { obj_id = norm c space_obj obj; offset; block }))

let evict ~source ~obj ~offset ~dirty =
  with_c (fun c ->
      push c (Event.Evict { source; obj_id = norm c space_obj obj; offset; dirty }))

let grant ~container ~frames =
  with_c (fun c ->
      push c (Event.Grant { container = norm c space_container container; frames }))

let reclaim ~container ~frames ~forced =
  with_c (fun c ->
      push c
        (Event.Reclaim { container = norm c space_container container; frames; forced }))

let policy_run ~container ~event ~outcome ~commands =
  with_c (fun c ->
      push c
        (Event.Policy_run
           { container = norm c space_container container; event; outcome; commands }))

let demote ~container ~reason =
  with_c (fun c ->
      push c (Event.Demote { container = norm c space_container container; reason }))

let io_retry ~block ~write ~attempt ~gave_up =
  with_c (fun c -> push c (Event.Io_retry { block; write; attempt; gave_up }))

let disk_io ~block ~nblocks ~write ~ok =
  with_c (fun c -> push c (Event.Disk_io { block; nblocks; write; ok }))

let map_op ~vpn ~enter = with_c (fun c -> push c (Event.Map_op { vpn; enter }))

let kill ~task ~reason =
  with_c (fun c -> push c (Event.Task_kill { task = norm c space_task task; reason }))

let pressure ~level ~free =
  with_c (fun c -> push c (Event.Pressure_change { level; free }))

let throttle ~container ~entered ~fuel =
  with_c (fun c ->
      push c
        (Event.Throttle { container = norm c space_container container; entered; fuel }))

let seize ~container ~frames ~level =
  with_c (fun c ->
      push c
        (Event.Seize { container = norm c space_container container; frames; level }))

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let events_seen c = c.seq
let counts c = Array.copy c.counts
let digest c = c.digest
let digest_hex d = Printf.sprintf "%016Lx" d

let decode_stream s count =
  let pos = ref 0 in
  Array.init count (fun seq -> Event.decode s ~pos ~seq)

let events c =
  match c.store with
  | None -> invalid_arg "Trace.events: collector was started without ~store:true"
  | Some b -> decode_stream (Buffer.contents b) c.seq

(* Shared category-count formatting: [pp_summary] and [Kstat.pp] print
   the same string, built here exactly once so the two surfaces cannot
   drift apart. *)
let counts_summary c =
  let parts = ref [] in
  for i = Event.num_categories - 1 downto 0 do
    if c.counts.(i) > 0 then
      parts := Printf.sprintf "%s %d" (Event.category_name i) c.counts.(i) :: !parts
  done;
  String.concat ", " !parts

let pp_summary fmt c =
  Format.fprintf fmt "@[<v>trace: %d events, digest %s@," c.seq (digest_hex c.digest);
  let counts = counts_summary c in
  Format.fprintf fmt "  counts: %s@," (if counts = "" then "(empty)" else counts);
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Recorded streams                                                    *)
(* ------------------------------------------------------------------ *)

module Recorded = struct
  type t = { meta : (string * string) list; events : Event.t array; digest : int64 }

  let of_collector c ~meta = { meta; events = events c; digest = c.digest }
  let meta_find t key = List.assoc_opt key t.meta

  let magic = "HPTR1\n"

  let save t ~path =
    let b = Buffer.create 4096 in
    Buffer.add_string b magic;
    Event.put_varint b (List.length t.meta);
    List.iter
      (fun (k, v) ->
        Event.put_string b k;
        Event.put_string b v)
      t.meta;
    Event.put_varint b (Array.length t.events);
    Array.iter (fun ev -> Event.encode b ev) t.events;
    Buffer.add_int64_be b t.digest;
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc b)

  let load ~path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error e -> Error e
    | exception End_of_file -> Error (path ^ ": truncated trace file")
    | s -> (
        try
          if String.length s < String.length magic + 8 then
            failwith "truncated trace file";
          if String.sub s 0 (String.length magic) <> magic then
            failwith "not a HiPEC trace file (bad magic)";
          let pos = ref (String.length magic) in
          let get_varint () = Event.decode_varint s pos in
          let get_string () =
            let len = get_varint () in
            if !pos + len > String.length s then failwith "truncated meta";
            let r = String.sub s !pos len in
            pos := !pos + len;
            r
          in
          let nmeta = get_varint () in
          let meta =
            List.init nmeta (fun _ ->
                let k = get_string () in
                let v = get_string () in
                (k, v))
          in
          let count = get_varint () in
          let body_start = !pos in
          let events = Array.init count (fun seq -> Event.decode s ~pos ~seq) in
          let body_end = !pos in
          if body_end + 8 > String.length s then failwith "truncated digest";
          let stored = String.get_int64_be s body_end in
          (* recompute the streaming digest over the encoded bytes *)
          let body = Buffer.create (body_end - body_start) in
          Buffer.add_substring body s body_start (body_end - body_start);
          let h = fnv1a fnv_offset_basis body in
          if h <> stored then
            failwith
              (Printf.sprintf "digest mismatch: file says %s, events hash to %s"
                 (digest_hex stored) (digest_hex h));
          Ok { meta; events; digest = stored }
        with
        | Failure e -> Error (path ^ ": " ^ e)
        | Invalid_argument e -> Error (path ^ ": malformed trace file (" ^ e ^ ")"))

  let to_json t =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"meta\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" k v))
      t.meta;
    Buffer.add_string b
      (Printf.sprintf "},\"digest\":\"%s\",\"events\":[" (digest_hex t.digest));
    Array.iteri
      (fun i ev ->
        if i > 0 then Buffer.add_string b ",\n";
        Event.to_json b ev)
      t.events;
    Buffer.add_string b "]}\n";
    Buffer.contents b

  type divergence = { seq : int; left : Event.t option; right : Event.t option }

  let diff a b =
    let na = Array.length a.events and nb = Array.length b.events in
    let rec scan i =
      if i >= na && i >= nb then None
      else if i >= na then Some { seq = i; left = None; right = Some b.events.(i) }
      else if i >= nb then Some { seq = i; left = Some a.events.(i); right = None }
      else
        let ea = a.events.(i) and eb = b.events.(i) in
        if ea.Event.time = eb.Event.time && ea.Event.payload = eb.Event.payload then
          scan (i + 1)
        else Some { seq = i; left = Some ea; right = Some eb }
    in
    scan 0
end
