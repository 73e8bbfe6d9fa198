# One-invocation wrappers for the standard workflows (see README.md).
#
# `test` is the tier-1 gate the repo is held to; `test-fast` excludes the
# suites marked slow / stress / differential (the CI matrix runs it on
# every push; the main CI job runs the full gate); `bench` prints the
# experiment series tables; `bench-all` regenerates BENCH_engine.json
# (the machine-readable backend suite; `bench-all-quick` is the CI smoke
# variant); `bench-ivm` runs just the incremental view-maintenance rows
# (delta apply vs full recompute); `bench-check` is the regression guard
# (fresh quick run held to the 3x vectorized-over-reference, 1.5x parallel and
# 5x delta-maintenance acceptance bars against the committed
# BENCH_engine.json); `test-ivm` selects the ivm-marked suites (unit
# tests + maintenance oracle); `test-dred` narrows to the dred-marked
# deletion suites (delete/rederive units, honesty boundary, deletion
# oracles, state-invariant properties); `test-columnar` selects the
# columnar-marked suites (flat-column dense-id kernels, intern round
# trips, flat-vs-object differential cases);
# `test-service` selects the service-marked suites (wire protocol,
# live-server integration, client SDK, CLI — all unmarked-slow, so
# `test-fast` runs them too); `test-router` selects the router-marked
# suites (cost estimation, catalog statistics, routing policy, join
# reordering, adaptation, auto-backend integration); `test-obs` selects
# the obs-marked suites (span tracing, metrics registry, explain-analyze
# profiling, service metrics/trace ops, slow-query log); `serve` starts a
# network query server on
# a demo graph (override WORKLOAD/PORT, e.g.
# `make serve WORKLOAD=random:128 PORT=7433`); `bench-service` runs
# just the network-service throughput/latency rows; `docs-check`
# runs the documentation consistency tests (no dangling *.md references
# from docstrings); `perf` runs the repo benchmark declared in
# BENCHMARK.json (five closed-loop workloads, each in a fresh child; writes
# perf/out/<run-id>/summary.json) and `perf-compare BASE=... NEW=...` holds
# one such summary.json to another by the declared bounds;
# `perf-pairs BASE=<git-rev> [WORKLOADS=a,b] [N=10] [SEED0=300]
# [CLAIM=workload:metric]` runs the alternating parent/change pairs a
# performance claim rests on (BASE exported with git archive into a
# temporary directory, one seed per pair), prints the median [q1, q3] /
# wins table EXPERIMENTS.md records, and fails if a row is worse than its
# BENCHMARK.json bound or the CLAIM row does not show the gain (>= 9/10
# wins and a median gap wider than the parent's quartile distance).

PYTHON ?= python
export PYTHONPATH := src

WORKLOAD ?= path:64
PORT ?= 7432

.PHONY: test test-fast test-ivm test-dred test-columnar test-service test-router test-obs serve bench bench-engine bench-all bench-all-quick bench-check bench-ivm bench-service docs-check perf perf-compare perf-pairs

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -q -m "not slow and not stress and not differential"

test-ivm:
	$(PYTHON) -m pytest -q -m ivm

test-dred:
	$(PYTHON) -m pytest -q -m dred

test-columnar:
	$(PYTHON) -m pytest -q -m columnar

test-service:
	$(PYTHON) -m pytest -q -m service

test-router:
	$(PYTHON) -m pytest -q -m router

test-obs:
	$(PYTHON) -m pytest -q -m obs

serve:
	$(PYTHON) -m repro.service.cli serve --workload $(WORKLOAD) --port $(PORT)

bench:
	$(PYTHON) -m pytest benchmarks/ -s --benchmark-only

bench-engine:
	$(PYTHON) -m pytest benchmarks/bench_engine.py -s -q --benchmark-disable

bench-all:
	$(PYTHON) benchmarks/run_all.py

bench-all-quick:
	$(PYTHON) benchmarks/run_all.py --quick

bench-check:
	$(PYTHON) benchmarks/check_regression.py

bench-ivm:
	$(PYTHON) benchmarks/bench_ivm.py

bench-service:
	$(PYTHON) benchmarks/bench_service.py

docs-check:
	$(PYTHON) -m pytest tests/test_docs.py -q

perf:
	$(PYTHON) perf/run.py

perf-compare:
	$(PYTHON) perf/compare.py $(BASE) $(NEW)

WORKLOADS ?=
N ?= 10
SEED0 ?= 300
CLAIM ?=

perf-pairs:
	$(PYTHON) tools/perf_pairs.py $(BASE) --pairs $(N) --seed0 $(SEED0) $(if $(WORKLOADS),--workloads $(WORKLOADS)) $(if $(CLAIM),--claim $(CLAIM))
