open Hipec_sim

type level = Normal | Elevated | Critical | Emergency

let severity = function Normal -> 0 | Elevated -> 1 | Critical -> 2 | Emergency -> 3

let level_name = function
  | Normal -> "normal"
  | Elevated -> "elevated"
  | Critical -> "critical"
  | Emergency -> "emergency"

let of_severity = function
  | 0 -> Normal
  | 1 -> Elevated
  | 2 -> Critical
  | _ -> Emergency

type t = {
  window : Sim_time.t;
  rate_threshold : float;
  mutable window_start : Sim_time.t;
  mutable window_faults : int;
  mutable last_rate : float;
  mutable level : level;
  mutable changes : int;
  mutable listeners : (prev:level -> next:level -> unit) list;  (* reversed *)
}

let create ?(window = Sim_time.ms 10) ?(rate_threshold = infinity) () =
  if Sim_time.to_ns window <= 0 then invalid_arg "Pressure.create: empty window";
  {
    window;
    rate_threshold;
    window_start = Sim_time.zero;
    window_faults = 0;
    last_rate = 0.;
    level = Normal;
    changes = 0;
    listeners = [];
  }

let rotate t ~now =
  let elapsed = Sim_time.sub now t.window_start in
  if Sim_time.(elapsed >= t.window) then begin
    (* a window more than twice overdue means the system went quiet:
       the stale burst must not keep escalating forever *)
    let span = Sim_time.to_sec_f elapsed in
    t.last_rate <-
      (if span > 2. *. Sim_time.to_sec_f t.window then 0.
       else float_of_int t.window_faults /. span);
    t.window_start <- now;
    t.window_faults <- 0
  end

let note_fault t ~now =
  rotate t ~now;
  t.window_faults <- t.window_faults + 1

let subscribe t f = t.listeners <- f :: t.listeners

let evaluate t ~free ~free_target ~reserved ~now =
  rotate t ~now;
  let watermark =
    if free <= reserved then Emergency
    else if free <= free_target / 2 then Critical
    else if free < free_target then Elevated
    else Normal
  in
  let raw =
    if t.last_rate >= t.rate_threshold then
      of_severity (min 3 (severity watermark + 1))
    else watermark
  in
  let next =
    if severity raw > severity t.level then raw  (* escalate immediately *)
    else if severity raw < severity t.level then
      of_severity (severity t.level - 1)  (* recover one step at a time *)
    else t.level
  in
  if next <> t.level then begin
    let prev = t.level in
    t.level <- next;
    t.changes <- t.changes + 1;
    List.iter (fun f -> f ~prev ~next) (List.rev t.listeners)
  end;
  t.level

let level t = t.level
let changes t = t.changes
let window_faults t = t.window_faults
