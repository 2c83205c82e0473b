(* Percentiles and medians for reported timings.  A percentile is
   refused unless at least ten samples lie beyond it, so a p99 needs at
   least 1000 samples. *)

let min_beyond = 10

(* Nearest-rank percentile of [samples] (any order) at [p] in (0, 1):
   [Ok (value, n)] or [Error n] when too few samples lie beyond it. *)
let percentile samples p =
  let n = Array.length samples in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  if n = 0 || n - rank < min_beyond then Error n
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    Ok (sorted.(max 0 (rank - 1)), n)
  end

let median_float = function
  | [] -> invalid_arg "Pct.median_float: no values"
  | values ->
      let a = Array.of_list values in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
