module Percentile = struct
  (* The one shared nearest-rank core: sort a copy with polymorphic
     [compare], clamp the caller's rank convention into [0, n-1],
     index. *)
  let nearest_rank samples ~rank_of =
    match Array.length samples with
    | 0 -> None
    | n ->
        let s = Array.copy samples in
        Array.sort compare s;
        Some s.(Stdlib.max 0 (Stdlib.min (n - 1) (rank_of n)))

  (* [p] in [0, 1] over int samples: index = round(p * (n-1)). *)
  let of_ints samples p =
    match
      nearest_rank samples ~rank_of:(fun n ->
          int_of_float ((p *. float_of_int (n - 1)) +. 0.5))
    with
    | Some v -> v
    | None -> 0
end

module Histogram = struct
  (* Buckets by power of two: bucket 0 holds [0, 1), bucket i >= 1 holds
     [2^(i-1), 2^i).  Samples at or above the top edge land in the
     overflow bucket; negatives underflow. *)
  type t = {
    buckets : int array;
    mutable underflow : int;
    mutable overflow : int;
    mutable count : int;
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let create_log ?(buckets = 48) () =
    if buckets < 2 then invalid_arg "Histogram.create_log: buckets < 2";
    {
      buckets = Array.make buckets 0;
      underflow = 0;
      overflow = 0;
      count = 0;
      sum = 0.;
      vmin = infinity;
      vmax = neg_infinity;
    }

  let bucket_bounds _ i = if i = 0 then (0., 1.) else (ldexp 1. (i - 1), ldexp 1. i)

  (* Index of the bucket [x] belongs in, [-1] for underflow,
     [Array.length buckets] for overflow. *)
  let bucket_index t x =
    let n = Array.length t.buckets in
    if x < 0. then -1
    else if x < 1. then 0
    else begin
      (* bucket for [2^(i-1), 2^i) is the bit width of floor(x) *)
      let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
      let i = width 0 (int_of_float x) in
      if i >= n then n else i
    end

  let add t x =
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    if x < t.vmin then t.vmin <- x;
    if x > t.vmax then t.vmax <- x;
    let i = bucket_index t x in
    if i < 0 then t.underflow <- t.underflow + 1
    else if i >= Array.length t.buckets then t.overflow <- t.overflow + 1
    else t.buckets.(i) <- t.buckets.(i) + 1

  let count t = t.count
  let bucket_counts t = Array.copy t.buckets
  let underflow t = t.underflow
  let overflow t = t.overflow
  let sum t = t.sum
  let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count
  let min t = if t.count = 0 then 0. else t.vmin
  let max t = if t.count = 0 then 0. else t.vmax

  (* Nearest-rank estimate from the buckets: walk the cumulative counts
     to the bucket holding the ranked sample and report its upper edge,
     clamped to the exact [vmin, vmax] so p0/p100 are exact and the
     estimate never leaves the observed range. *)
  let percentile t p =
    if t.count = 0 then 0.
    else begin
      let rank = int_of_float (ceil (p /. 100. *. float_of_int t.count)) in
      let rank = Stdlib.max 1 (Stdlib.min t.count rank) in
      if rank <= t.underflow then t.vmin
      else begin
        let n = Array.length t.buckets in
        let rec walk i cum =
          if i >= n then t.vmax
          else
            let cum = cum + t.buckets.(i) in
            if rank <= cum then
              let _, hi = bucket_bounds t i in
              Float.max t.vmin (Float.min hi t.vmax)
            else walk (i + 1) cum
        in
        walk 0 t.underflow
      end
    end
end
