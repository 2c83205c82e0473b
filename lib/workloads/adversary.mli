(** Adversarial trace search: hunt for Belady-anomaly witnesses.

    A witness for policy [p] is an access trace on which [p] faults
    strictly {e more} when granted {e more} frames — Belady's anomaly,
    which is unbounded for FIFO (Fornai & Ivanyi) and impossible for
    stack algorithms like LRU.  The search engine scores candidate
    traces against the pure oracles in {!Hipec_trace.Oracle} (no kernel
    in the loop), climbs by seeded mutation, and then {!confirm}s any
    witness end-to-end by recording it through the real executor,
    requiring oracle-exact fault counts.  The kernel replay is
    {!Trace_run.record_accesses}, the same harness that writes a
    witness's [.trace] regression files, so a confirmed digest is the
    digest {!record_witness} pins.  Everything is driven by one
    splitmix64 stream: a seed reproduces the whole search. *)

module Oracle = Hipec_trace.Oracle

type config = {
  policy : string;  (** oracle/policy name, e.g. ["fifo"], ["adaptive"] *)
  seed : int;
  frames_lo : int;  (** the smaller minFrame grant *)
  frames_hi : int;  (** the larger grant; must exceed [frames_lo] *)
  npages : int;  (** page alphabet size for candidate traces *)
  length : int;  (** accesses per candidate trace *)
  random_rounds : int;  (** random probes before the climb *)
  mutation_rounds : int;  (** hill-climb budget *)
}

val default : config
(** fifo, seed 7, 3-vs-4 frames, 6 pages, 24 accesses, 400 random +
    2400 mutation rounds. *)

val smoke : config
(** [default] at the CI budget (200 random + 1200 mutation rounds) —
    still finds the FIFO witness. *)

type witness = {
  w_policy : string;
  w_frames_lo : int;
  w_frames_hi : int;
  w_faults_lo : int;  (** oracle faults at [w_frames_lo] *)
  w_faults_hi : int;  (** oracle faults at [w_frames_hi]; > [w_faults_lo] *)
  w_accesses : Oracle.access array;
}

val anomaly_ratio : witness -> float
(** [faults_hi / faults_lo] — how far above 1.0 the anomaly reaches. *)

val classic_belady : Oracle.access array
(** The classic 12-access FIFO witness 1 2 3 4 1 2 5 1 2 3 4 5
    (faults(3) = 9 < faults(4) = 10). *)

val pp_accesses : Format.formatter -> Oracle.access array -> unit
(** Comma-separated pages, ["w"]-suffixed writes — the same notation
    the oracle tests print. *)

type outcome = {
  o_config : config;
  o_witness : witness option;  (** best positive-gap trace, if any *)
  o_best_gap : int;  (** widest [faults_hi - faults_lo] seen *)
  o_traces_scored : int;  (** candidate traces evaluated *)
}

val search : config -> outcome
(** Run the seeded search.  Raises [Invalid_argument] on an unknown
    policy or a non-increasing frame pair. *)

(** {2 End-to-end confirmation} *)

type executor_run = {
  x_faults : int;  (** HiPEC faults in the recording *)
  x_digest : int64;  (** the recording's digest *)
}

type confirmed_level = {
  cl_frames : int;
  cl_oracle_faults : int;
  cl_run : executor_run;
}

type confirmation = {
  c_witness : witness;
  c_lo : confirmed_level;  (** the witness replayed at [w_frames_lo] *)
  c_hi : confirmed_level;  (** the witness replayed at [w_frames_hi] *)
}

val confirm : witness -> (confirmation, string) result
(** {!record_witness} once at each frame count; a confirmed witness's
    digest at each grant is the one {!record_witness} pins. *)

val matches_oracle : confirmation -> bool
(** Both executor runs faulted exactly as often as the pure oracle. *)

val anomaly_holds : confirmation -> bool
(** The real executor faulted strictly more at the larger grant. *)

val confirmed : confirmation -> bool
(** Both of the above. *)

val failures : fifo:outcome -> adaptive:outcome -> string list
(** The regression gate [hipec adversary report] and
    [hipec-bench adversary] share: [fifo] holds a witness that
    {!confirm}s end to end, and [adaptive], searched at the same budget
    (its config differs only in [policy]), holds none.  One message per
    failed check; [[]] when the gate passes. *)

(** {2 Golden regression recording} *)

val witness_cfg : witness -> frames:int -> Trace_run.policy_cfg
(** The policy-scenario metadata a recorded witness carries
    ([pattern = "adversary"]), sufficient for [Trace_run.replay]. *)

val record_witness :
  witness -> frames:int -> (Hipec_trace.Trace.Recorded.t, string) result
(** Record the witness replay at [frames] as a [.trace] recording that
    [Trace_run.replay] (and [hipec trace replay]) round-trips. *)
