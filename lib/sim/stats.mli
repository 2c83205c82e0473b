(** Measurement accumulators for experiments. *)

(** The nearest-rank percentile core.  Every percentile over a sample
    array in the tree ([Storm.percentile], [Span.Agg], the test
    references) goes through {!nearest_rank}, so their sort-and-index
    behavior cannot drift apart. *)
module Percentile : sig
  val nearest_rank : 'a array -> rank_of:(int -> int) -> 'a option
  (** Sort a copy with polymorphic [compare] and return the element at
      index [rank_of n] clamped into [\[0, n-1\]]; [None] when empty. *)

  val of_ints : int array -> float -> int
  (** [p] in [0, 1]; index = round(p * (n-1)).  0 when empty.  The
      storm suite's and the span aggregates' semantics. *)
end

(** Log-2 bucketed histogram: bucket 0 holds [\[0, 1)], bucket [i >= 1]
    holds [\[2^(i-1), 2^i)]; samples at or past the top edge overflow,
    negatives underflow.  It tracks exact count/sum/min/max alongside
    the buckets, so {!percentile} is a bucket-resolution estimate
    clamped to the observed range. *)
module Histogram : sig
  type t

  val create_log : ?buckets:int -> unit -> t
  (** Default 48 buckets, covering values up to [2^47)]. *)

  val add : t -> float -> unit
  val count : t -> int
  val bucket_counts : t -> int array
  val underflow : t -> int
  val overflow : t -> int

  val bucket_bounds : t -> int -> float * float
  (** [(lo, hi)] edges of bucket [i]; samples land in [\[lo, hi)]. *)

  val bucket_index : t -> float -> int
  (** Bucket [x] would land in: [-1] for underflow, the bucket count for
      overflow. *)

  val sum : t -> float
  val mean : t -> float

  val min : t -> float
  (** Exact observed minimum; 0 when empty. *)

  val max : t -> float
  (** Exact observed maximum; 0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile t p] (p in [0, 100]): nearest-rank estimate at bucket
      resolution — the upper edge of the ranked bucket, clamped to the
      exact observed [min]/[max] (so p0 and p100 are exact); 0 when
      empty. *)
end
