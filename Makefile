.PHONY: all test bench examples clean quick-bench chaos oracle golden fig6 paper metrics-bench storm storm-bench adversary adversary-bench spans spans-bench lint perfbench-smoke ci

all:
	dune build @all

test:
	dune runtest

chaos:
	dune exec bench/main.exe -- chaos --smoke

# the differential suite: executor vs the pure policy oracles
oracle:
	dune exec test/test_oracle.exe

# fixed-seed scenarios must reproduce the digests in test/golden/
golden:
	dune exec test/test_golden.exe

# the Figure 6 join at quick scale; exits nonzero unless every run's
# measured fault count equals the paper's analytic PF_l / PF_m
fig6:
	dune exec bench/main.exe -- fig6 --quick

# the paper's tables and figures and the ablations at quick scale:
# Table 3 (with its per-fault span tables), Table 4, Figure 5 and its
# mixed-kernel variant, the four ablations and the mechanism
# comparison; exits nonzero if any of them raises
paper:
	dune exec bench/main.exe -- table3 table4 fig5 fig5-mixed \
	  ablation-burst ablation-checker ablation-interp ablation-readahead \
	  mechanism --quick

# per-scenario latency percentile tables; rewrites BENCH_4.json
metrics-bench:
	dune exec bench/main.exe -- metrics

# the multi-tenant overload storm at smoke scale (100 tenants); exits
# nonzero on a conservation break, audit violation or honest starvation
storm:
	dune exec bin/hipec_cli.exe -- storm --smoke

# storm isolation metrics; fails on the storm's acceptance checks
# (conservation, audits, honest survival) or on digest instability
# across runs, and rewrites BENCH_5.json
storm-bench:
	dune exec bench/main.exe -- storm --quick

# the anomaly-witness regression gate: the seeded search must find and
# confirm a FIFO Belady anomaly, must find none against the adaptive
# policy at the same budget, and the pinned golden witness pair must
# replay digest-identically with the anomaly intact
adversary:
	dune exec bin/hipec_cli.exe -- adversary report --smoke
	dune exec bin/hipec_cli.exe -- adversary replay-witness \
	  test/golden/witness-fifo-lo.trace test/golden/witness-fifo-hi.trace

# witness search throughput and the fifo-falls/adaptive-stands gate at
# the full budget; rewrites BENCH_6.json
adversary-bench:
	dune exec bench/main.exe -- adversary

# critical-path span attribution on the storm and chaos scenarios
spans:
	dune exec bin/hipec_cli.exe -- spans --scenario storm-smoke --json -o SPANS.json
	dune exec bin/hipec_cli.exe -- spans --scenario chaos-smoke

# online span-building overhead and stream-identity gates; rewrites
# BENCH_8.json (spans off: event stream bit-identical; spans on:
# < 10% of the whole-run wall)
spans-bench:
	dune exec bench/main.exe -- spans --quick

# the static analyzer over every built-in policy and every pseudo-code
# example; exits nonzero on any error-severity finding
lint:
	for p in fifo lru mru clock second-chance adaptive greedy; do \
	  echo "== builtin:$$p"; \
	  dune exec bin/hipec_cli.exe -- lint --builtin $$p || exit 1; \
	done
	for f in examples/*.hp; do \
	  echo "== $$f"; \
	  dune exec bin/hipec_cli.exe -- lint $$f || exit 1; \
	done

# a few seconds of each benchmark workload through the benchmark's own
# runner; fails unless every run reports correct with no failed
# operations
perfbench-smoke:
	for w in join-mru paging-mix tenant-storm; do \
	  last=$$(python3 perfbench/run.py --workload "$$w" --seconds 3 --trace 0 | tail -n 1); \
	  echo "$$w: $$last"; \
	  echo "$$last" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' || exit 1; \
	done

# What CI runs: full build, the whole test suite (which includes the
# oracle, golden, storm, span and adversary suites), the example
# programs written against the public API, the policy lint
# gate, the Figure 6 fault-count gate, the paper's other tables and
# figures at quick scale, the chaos and storm acceptance
# checks at smoke scale, the adversary regression gate, the span
# attribution runs, the metrics, storm, adversary and spans benches,
# and the benchmark smoke.
ci: all test examples lint oracle golden fig6 paper chaos storm adversary spans metrics-bench storm-bench adversary-bench spans-bench perfbench-smoke

bench:
	dune exec bench/main.exe

quick-bench:
	dune exec bench/main.exe -- --quick

examples:
	dune build @examples

clean:
	dune clean
