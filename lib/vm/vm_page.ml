open Hipec_sim
open Hipec_machine

(* Queue links are intrusive: a page carries its own prev/next pointers
   for the queue holding it, plus older/newer pointers for that queue's
   recency index when it has one, so queue operations neither allocate
   nor hash.  [nil] stands for "no page" at the ends of both lists and
   [unindexed] for "no recency index". *)
type t = {
  id : int;
  frame : Frame.t;
  mutable binding : (int * int) option;
  mutable mappings : (Pmap.t * int) list;
  mutable wired : bool;
  mutable last_access : Sim_time.t;
  mutable on_queue : int option;
  mutable prev : t;
  mutable next : t;
  mutable seq : int;
  mutable older : t;
  mutable newer : t;
  mutable index : index;
}

and index = { mutable first : t; mutable last : t }

let nil_frame = Frame.Table.get (Frame.Table.create ~total:1) 0

let rec nil =
  {
    id = 0;
    frame = nil_frame;
    binding = None;
    mappings = [];
    wired = false;
    last_access = Sim_time.zero;
    on_queue = None;
    prev = nil;
    next = nil;
    seq = 0;
    older = nil;
    newer = nil;
    index = unindexed;
  }

and unindexed = { first = nil; last = nil }

let next_id = ref 0

let create ~frame =
  incr next_id;
  {
    id = !next_id;
    frame;
    binding = None;
    mappings = [];
    wired = false;
    last_access = Sim_time.zero;
    on_queue = None;
    prev = nil;
    next = nil;
    seq = 0;
    older = nil;
    newer = nil;
    index = unindexed;
  }

let id t = t.id
let frame t = t.frame
let binding t = t.binding

let bind t ~object_id ~offset =
  match t.binding with
  | Some _ -> invalid_arg "Vm_page.bind: already bound"
  | None -> t.binding <- Some (object_id, offset)

let unbind t =
  match t.binding with
  | None -> invalid_arg "Vm_page.unbind: not bound"
  | Some _ -> t.binding <- None

let is_bound t = t.binding <> None
let mappings t = t.mappings
let add_mapping t pmap ~vpn = t.mappings <- (pmap, vpn) :: t.mappings

let remove_mapping t pmap ~vpn =
  t.mappings <- List.filter (fun (p, v) -> not (p == pmap && v = vpn)) t.mappings

let unmap_all t =
  List.iter (fun (pmap, vpn) -> Pmap.remove pmap ~vpn) t.mappings;
  t.mappings <- []

let dirty t = Frame.modified t.frame
let referenced t = Frame.referenced t.frame
let clear_modified t = Frame.set_modified t.frame false
let clear_referenced t = Frame.set_referenced t.frame false
let wired t = t.wired

let set_wired t b =
  t.wired <- b;
  Frame.set_wired t.frame b

let last_access t = t.last_access
let on_queue t = t.on_queue
let set_on_queue t q = t.on_queue <- q

(* -- queue links ---------------------------------------------------- *)

let prev t = t.prev
let next t = t.next
let set_prev t p = t.prev <- p
let set_next t n = t.next <- n
let seq t = t.seq
let set_seq t s = t.seq <- s

(* -- recency index -------------------------------------------------- *)

let create_index () = { first = nil; last = nil }
let index_first ix = ix.first
let index_last ix = ix.last
let older t = t.older
let newer t = t.newer
let in_index t ix = t.index == ix

let precedes a b =
  let ta = (a.last_access :> int) and tb = (b.last_access :> int) in
  ta < tb || (ta = tb && a.seq < b.seq)

(* Link [t] after the last page that sorts before it, found by walking
   back from the newest end. *)
let index_insert ix t =
  let rec after c = if c == nil || precedes c t then c else after c.older in
  let o = after ix.last in
  let n = if o == nil then ix.first else o.newer in
  t.older <- o;
  t.newer <- n;
  if o == nil then ix.first <- t else o.newer <- t;
  if n == nil then ix.last <- t else n.older <- t;
  t.index <- ix

let index_remove t =
  let ix = t.index in
  if ix != unindexed then begin
    let o = t.older and n = t.newer in
    if o == nil then ix.first <- n else o.newer <- n;
    if n == nil then ix.last <- o else n.older <- o;
    t.older <- nil;
    t.newer <- nil;
    t.index <- unindexed
  end

let touch t now =
  t.last_access <- now;
  let ix = t.index in
  if ix != unindexed then begin
    index_remove t;
    index_insert ix t
  end

let pp fmt t =
  let binding =
    match t.binding with
    | None -> "unbound"
    | Some (o, off) -> Printf.sprintf "obj%d+%d" o off
  in
  Format.fprintf fmt "page#%d(%a,%s%s%s)" t.id Frame.pp t.frame binding
    (if t.wired then ",wired" else "")
    (match t.on_queue with None -> "" | Some q -> Printf.sprintf ",q%d" q)
