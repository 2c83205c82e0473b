module Oracle = Hipec_trace.Oracle

type policy = Fifo | Lru | Mru | Clock | Opt

let policy_name = function
  | Fifo -> "FIFO"
  | Lru -> "LRU"
  | Mru -> "MRU"
  | Clock -> "CLOCK"
  | Opt -> "OPT"

let all_policies = [ Fifo; Lru; Mru; Clock; Opt ]

(* ------------------------------------------------------------------ *)
(* Belady's OPT                                                        *)
(* ------------------------------------------------------------------ *)

let opt ~frames trace =
  let n = Array.length trace in
  (* next_use.(i) = next position after i referencing the same page *)
  let next_use = Array.make n max_int in
  let last_seen = Hashtbl.create 64 in
  for i = n - 1 downto 0 do
    let page = trace.(i).Access_trace.page in
    (match Hashtbl.find_opt last_seen page with
    | Some j -> next_use.(i) <- j
    | None -> next_use.(i) <- max_int);
    Hashtbl.replace last_seen page i
  done;
  let resident = Hashtbl.create 64 in
  (* page -> next use position *)
  let faults = ref 0 in
  Array.iteri
    (fun i { Access_trace.page; _ } ->
      if Hashtbl.mem resident page then Hashtbl.replace resident page next_use.(i)
      else begin
        incr faults;
        if Hashtbl.length resident >= frames then begin
          (* evict the page used farthest in the future *)
          let victim = ref None in
          Hashtbl.iter
            (fun p next ->
              match !victim with
              | None -> victim := Some (p, next)
              | Some (_, best) -> if next > best then victim := Some (p, next))
            resident;
          match !victim with
          | Some (p, _) -> Hashtbl.remove resident p
          | None -> ()
        end;
        Hashtbl.replace resident page next_use.(i)
      end)
    trace;
  !faults

let faults policy ~frames trace =
  if frames <= 0 then invalid_arg "Policy_sim.faults: frames <= 0";
  let model m = (m ~frames trace).Oracle.faults in
  match policy with
  | Fifo -> model Oracle.fifo
  | Lru -> model Oracle.lru
  | Mru -> model Oracle.mru
  | Clock -> model Oracle.clock
  | Opt -> opt ~frames trace

let sweep ~frames trace =
  List.map (fun p -> (p, faults p ~frames trace)) all_policies
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let advise ~frames trace =
  match List.filter (fun (p, _) -> p <> Opt) (sweep ~frames trace) with
  | (best, _) :: _ -> best
  | [] -> assert false
