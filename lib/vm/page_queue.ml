(* Doubly linked through the pages' own intrusive links (see Vm_page),
   so queue operations neither allocate nor hash.  Each enqueue stamps
   the page with a position: [enqueue_head] counts down from 0 and
   [enqueue_tail] counts up, so positions ascend from head to tail and
   break last-access ties in the recency index exactly as a scan from
   the head would. *)

let nil = Vm_page.nil

type t = {
  id : int;
  name : string;
  tag : int option;  (* [Some id], shared by every member's [on_queue] *)
  mutable head : Vm_page.t;
  mutable tail : Vm_page.t;
  mutable length : int;
  mutable head_seq : int;
  mutable tail_seq : int;
  index : Vm_page.index;
  mutable indexed : bool;  (* built on the first [oldest]/[newest] *)
}

let next_id = ref 0

let create name =
  incr next_id;
  {
    id = !next_id;
    name;
    tag = Some !next_id;
    head = nil;
    tail = nil;
    length = 0;
    head_seq = 0;
    tail_seq = 0;
    index = Vm_page.create_index ();
    indexed = false;
  }

let id t = t.id
let name t = t.name
let length t = t.length
let is_empty t = t.length = 0

let mem t page =
  match Vm_page.on_queue page with Some q -> q = t.id | None -> false

let claim t page ~seq =
  (match Vm_page.on_queue page with
  | Some q ->
      invalid_arg
        (Printf.sprintf "Page_queue.%s: page #%d already on queue %d" t.name
           (Vm_page.id page) q)
  | None -> ());
  Vm_page.set_on_queue page t.tag;
  Vm_page.set_seq page seq;
  t.length <- t.length + 1

let enqueue_head t page =
  t.head_seq <- t.head_seq - 1;
  claim t page ~seq:t.head_seq;
  let h = t.head in
  Vm_page.set_next page h;
  if h == nil then t.tail <- page else Vm_page.set_prev h page;
  t.head <- page;
  if t.indexed then Vm_page.index_insert t.index page

let enqueue_tail t page =
  t.tail_seq <- t.tail_seq + 1;
  claim t page ~seq:t.tail_seq;
  let tl = t.tail in
  Vm_page.set_prev page tl;
  if tl == nil then t.head <- page else Vm_page.set_next tl page;
  t.tail <- page;
  if t.indexed then Vm_page.index_insert t.index page

let unlink t page =
  let p = Vm_page.prev page and n = Vm_page.next page in
  if p == nil then t.head <- n else Vm_page.set_next p n;
  if n == nil then t.tail <- p else Vm_page.set_prev n p;
  Vm_page.set_prev page nil;
  Vm_page.set_next page nil;
  Vm_page.index_remove page;
  Vm_page.set_on_queue page None;
  t.length <- t.length - 1

let dequeue_head t =
  let h = t.head in
  if h == nil then None
  else begin
    unlink t h;
    Some h
  end

let dequeue_tail t =
  let tl = t.tail in
  if tl == nil then None
  else begin
    unlink t tl;
    Some tl
  end

let peek_head t = if t.head == nil then None else Some t.head
let peek_tail t = if t.tail == nil then None else Some t.tail

let remove t page =
  if not (mem t page) then
    invalid_arg (Printf.sprintf "Page_queue.%s: remove of absent page" t.name);
  unlink t page

let iter f t =
  let rec loop p =
    if p != nil then begin
      let n = Vm_page.next p in
      f p;
      loop n
    end
  in
  loop t.head

let fold f init t =
  let acc = ref init in
  iter (fun p -> acc := f !acc p) t;
  !acc

let to_list t = List.rev (fold (fun acc p -> p :: acc) [] t)

(* -- victim selection ------------------------------------------------ *)

let stamp p = (Vm_page.last_access p :> int)

(* The reference linear scans: the first page from the head whose last
   access is [better] than every earlier page's.  [oldest]/[newest]
   must agree with them page for page. *)
let scan better t =
  if t.head == nil then None
  else begin
    let rec loop best key p =
      if p == nil then best
      else
        let k = stamp p in
        if better k key then loop p k (Vm_page.next p) else loop best key (Vm_page.next p)
    in
    Some (loop t.head (stamp t.head) (Vm_page.next t.head))
  end

let find_oldest t = scan ( < ) t
let find_newest t = scan ( > ) t

(* Inserting in index order lands every page at the newest end without
   walking. *)
let ensure_index t =
  if not t.indexed then begin
    t.indexed <- true;
    List.iter (Vm_page.index_insert t.index)
      (List.sort (fun a b -> if Vm_page.precedes a b then -1 else 1) (to_list t))
  end

let oldest t =
  ensure_index t;
  let p = Vm_page.index_first t.index in
  if p == nil then None else Some p

(* The last page of the index has the greatest last access; the first
   page of its equal-access run is the one nearest the head. *)
let newest t =
  ensure_index t;
  let last = Vm_page.index_last t.index in
  if last == nil then None
  else begin
    let key = stamp last in
    let rec first_of_run p =
      let o = Vm_page.older p in
      if o != nil && stamp o = key then first_of_run o else p
    in
    Some (first_of_run last)
  end

(* -- invariants ----------------------------------------------------- *)

(* Walk a list from [first] through [step], checking each page with
   [ok prev page]; stops after [limit + 1] pages so a cycle fails
   instead of looping.  Returns the page count and the last page. *)
let walk ~first ~step ~limit ok =
  let rec go n prev p =
    if p == nil || n > limit then (n, prev)
    else if ok prev p then go (n + 1) p (step p)
    else (limit + 1, prev)
  in
  go 0 nil first

let check_invariants t =
  let queue_ok prev p =
    Vm_page.prev p == prev
    && mem t p
    && (prev == nil || Vm_page.seq prev < Vm_page.seq p)
    && Vm_page.in_index p t.index = t.indexed
  in
  let n, last = walk ~first:t.head ~step:Vm_page.next ~limit:t.length queue_ok in
  n = t.length && last == t.tail
  && ((not t.indexed)
     ||
     let index_ok prev p =
       Vm_page.older p == prev && mem t p && (prev == nil || Vm_page.precedes prev p)
     in
     let n, last =
       walk ~first:(Vm_page.index_first t.index) ~step:Vm_page.newer ~limit:t.length index_ok
     in
     n = t.length && last == Vm_page.index_last t.index)
