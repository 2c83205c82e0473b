(** Deterministic trace record/replay scenarios.

    [record] runs a scenario with a storing trace collector installed
    and packages the event stream as a {!Hipec_trace.Trace.Recorded.t}
    whose metadata is sufficient to re-execute it.  [replay] re-executes
    a recording: policy-trace recordings are driven from the recorded
    access stream itself (the stronger form — the access events alone
    reproduce every downstream fault, pagein, eviction and policy run),
    while workload recordings re-run the named workload under the same
    seed.  Either way the replayed digest must equal the recorded one on
    a healthy tree. *)

open Hipec_trace

type policy_cfg = {
  pattern : string;  (** cyclic|sequential|reverse|strided|random|zipf|phased *)
  npages : int;
  frames : int;  (** the container's [minFrame] *)
  policy : string;  (** fifo|lru|mru|clock|second-chance|adaptive *)
  count : int;
  seed : int;
}

val default_policy_cfg : policy_cfg
(** cyclic, 256 pages, 128 frames, mru, 4096 accesses, seed 17. *)

val pattern_names : string list

val policy_names : string list
(** The six policies {!Hipec_trace.Oracle.of_policy_name} models. *)

val build_trace : policy_cfg -> (Oracle.access array, string) result
(** The access trace [cfg.pattern] names, drawn from [cfg.seed]
    ([cfg.policy] plays no part).  [Error] on an unknown pattern. *)

type scenario = Policy of policy_cfg | Named of string

val named_scenarios : string list
(** ["join-small"; "aim-small"; "chaos-smoke"] — fixed-seed workload
    recordings used for the golden digests under [test/golden/]. *)

val scenario_of_name : string -> scenario option
(** Resolves a named scenario, or ["policy"] to {!default_policy_cfg}. *)

val record_accesses :
  policy_cfg -> Oracle.access array -> (Trace.Recorded.t, string) result
(** Record an explicit access array (pages are region-relative) run
    under [cfg]'s machine — how adversary witnesses become [.trace]
    regression files.  [cfg.pattern] is provenance only; [replay]
    re-drives the recorded access events and never regenerates it. *)

val hipec_faults : Trace.Recorded.t -> int
(** The recording's HiPEC-policy faults ([Fault] events of kind
    [Hipec]). *)

val record : scenario -> (Trace.Recorded.t, string) result
(** Run the scenario under a fresh storing collector.  Any previously
    installed collector is replaced and the collector is uninstalled
    before returning, success or not. *)

val run_scenario : scenario -> (unit, string) result
(** Run the scenario with whatever sinks are currently installed —
    unlike {!record} this never touches the trace collector, so callers
    can observe a run through a metrics registry (or nothing at all). *)

type replay_outcome = {
  recorded_digest : int64;
  replayed_digest : int64;
  events_replayed : int;
  divergence : Trace.Recorded.divergence option;
      (** The first differing event when the digests disagree. *)
}

val matches : replay_outcome -> bool

val replay : Trace.Recorded.t -> (replay_outcome, string) result
(** Re-execute the recording (see module doc) and compare streams. *)
