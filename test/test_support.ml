(* Shared helpers for the test executables (every module in test/ links
   into each test binary, so this needs no dune wiring).

   The two nearest-rank percentile helpers below pin the rank
   conventions the tree relies on: [percentile] mirrors
   [Storm.percentile] (rounded index, p in 0..1) and [percentile_exact]
   is the exact 1-based ceil-rank percentile (p in 0..100) that
   [Stats.Histogram.percentile] estimates.  Both route through the one
   shared core, [Stats.Percentile.nearest_rank]; only the rank
   arithmetic lives here, spelled out independently so a broken
   convention in the production wrapper can't hide. *)

(* Nearest-rank percentile over int samples, [p] in 0..1 — the
   reference for [Storm.percentile]: sorted.(round (p * (n-1))),
   0 on empty input. *)
let percentile (samples : int array) p =
  match
    Hipec_sim.Stats.Percentile.nearest_rank samples ~rank_of:(fun n ->
        int_of_float ((p *. float_of_int (n - 1)) +. 0.5))
  with
  | Some v -> v
  | None -> 0

(* Nearest-rank percentile over float samples, [p] in 0..100 — the
   oracle for [Stats.Histogram.percentile]: rank = ceil(p/100 * n)
   clamped to 1..n, 0 on empty input. *)
let percentile_exact (samples : float array) p =
  match
    Hipec_sim.Stats.Percentile.nearest_rank samples ~rank_of:(fun n ->
        int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)
  with
  | Some v -> v
  | None -> 0.

(* Minor-heap words [f] allocates (plus the two float boxes of the
   [Gc.minor_words] reads themselves). *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0
