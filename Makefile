# One-command CI-style verification and benchmarking.
#
#   make            build + full test suite (tier-1 gate)
#   make build      dune build
#   make test       dune runtest
#   make verify     lint + SAT-based formal equivalence suite only
#   make faults     fault-injection + retry/escalation resilience suite only
#   make obs        observability suite only (spans, counters, trace export)
#   make analyze    static-analysis suite only (dataflow passes, CEC-gated
#                   simplifier, static region-ownership proof)
#   make bench      full paper reproduction (E1-E15) + kernel benchmarks;
#                   writes BENCH_sweep.json (schema vpga-bench-sweep/6:
#                   sweep wall + recovery, robustness cells, kernel
#                   estimates; JOBS=N to set worker domains).  End-to-end
#                   and per-stage timing lives in perfbench/
#   make ab         same-host A/B of the working tree against REV (default
#                   HEAD~1, exported with git archive): 10 interleaved
#                   perfbench pairs per workload (median, IQR, wins), then
#                   one traced pass per side; exits nonzero if failures
#                   rise, a QoR metric moves, or an exact per-layer metric
#                   changes that EXPECT (space-separated names) does not list
#   make perfdiff   re-run just the kernels and diff against the committed
#                   BENCH_sweep.json; exits nonzero past TOLERANCE
#                   (fractional, default 0.25)
#   make stress     small fixed-seed defect-stress matrix: minimum channel
#                   width + survival per (design, arch, defect rate)
#   make metrics    regenerate the committed BENCH_metrics.json baseline
#                   (one fixed-seed alu/granular flow with --metrics)
#   make metricsdiff  run the same flow fresh and gate it against
#                   BENCH_metrics.json with `vpga perf diff` at 50%
#                   tolerance; exits nonzero on regression
#   make cachecheck   end-to-end stage-cache self-test: one flow cold
#                   against a throwaway disk store, rerun warm from a
#                   fresh process, assert a nonzero hit rate and
#                   identical outcomes; exits nonzero on divergence
#   make check      the full pre-merge gate: build, test suite (which
#                   runs the static-analysis suite too), the defect-stress
#                   matrix, the stage-cache self-test, the metrics
#                   snapshot diff, then the kernel perf regression diff at
#                   25% tolerance
#   make trace      run one traced flow (alu / granular) and write
#                   trace.json -- open it at https://ui.perfetto.dev or
#                   summarize with `dune exec bin/vpga.exe -- report trace.json`

JOBS ?=
TOLERANCE ?=
REV ?= HEAD~1
EXPECT ?=

.PHONY: all build test verify faults obs analyze bench ab perfdiff stress metrics metricsdiff cachecheck check trace clean

all: build test

build:
	dune build

test:
	dune build @runtest

verify:
	dune build @verify

faults:
	dune build @faults

obs:
	dune build @obs

analyze:
	dune build @analyze

trace:
	dune exec bin/vpga.exe -- flow -d alu -a granular --trace trace.json
	dune exec bin/vpga.exe -- report trace.json

bench:
	dune exec bench/main.exe -- $(if $(JOBS),-jobs $(JOBS),)

ab:
	python3 bench/ab.py --rev $(REV) $(foreach m,$(EXPECT),--expect-change $(m))

perfdiff:
	dune exec bench/main.exe -- -perfdiff $(if $(TOLERANCE),-tolerance $(TOLERANCE),)

stress:
	dune exec bin/vpga.exe -- stress --rates 0,0.05 --maps 2 $(if $(JOBS),-j $(JOBS),)

# The committed metrics baseline and its gate both run the same fixed-seed
# single-job flow, so counters/allocations are deterministic and only
# wall-clock quantities need the diff's noise floors.
metrics:
	dune exec bin/vpga.exe -- flow -d alu -a granular -j 1 --seed 1 --metrics BENCH_metrics.json

metricsdiff:
	dune exec bin/vpga.exe -- flow -d alu -a granular -j 1 --seed 1 --metrics _metrics_current.json
	dune exec bin/vpga.exe -- perf diff BENCH_metrics.json _metrics_current.json --tolerance 0.5
	rm -f _metrics_current.json

cachecheck:
	dune exec bin/vpga.exe -- cache check

check:
	dune build
	dune build @runtest
	$(MAKE) stress
	$(MAKE) cachecheck
	$(MAKE) metricsdiff
	$(MAKE) perfdiff TOLERANCE=0.25

clean:
	dune clean
