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
#   make ab         the repo's regression gate: a same-host A/B of the
#                   working tree against REV (default HEAD~1).  Both are
#                   exported to temporary directories and built from
#                   scratch.  10 interleaved perfbench pairs per workload
#                   (median, IQR, wins), one traced pass per side, then 10
#                   interleaved pairs of the Bechamel kernels; exits
#                   nonzero if failures rise, a QoR metric moves, an exact
#                   per-layer metric changes that EXPECT (space-separated
#                   names) does not list, or a kernel's minimum ns/run
#                   grows by more than 25%
#   make stress     small fixed-seed defect-stress matrix: minimum channel
#                   width + survival per (design, arch, defect rate)
#   make check      the full pre-merge gate: dune build, dune runtest
#                   (which also runs the stage-cache self-test and pins
#                   the small stress matrix), then make ab
#   make trace      run one traced flow (alu / granular) and write
#                   trace.json -- open it at https://ui.perfetto.dev or
#                   summarize with `dune exec bin/vpga.exe -- report trace.json`

JOBS ?=
REV ?= HEAD~1
EXPECT ?=

.PHONY: all build test verify faults obs analyze bench ab stress check trace clean

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

stress:
	dune exec bin/vpga.exe -- stress --rates 0,0.05 --maps 2 $(if $(JOBS),-j $(JOBS),)

check:
	dune build
	dune runtest
	$(MAKE) ab

clean:
	dune clean
