# Developer entry points. `make test` is the tier-1 gate; `make lint`
# enforces the no-print and metric-name rules in library code; `make
# check` runs lints + tests.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint check http-smoke bench profile faults serve-bench \
	parallel-bench tail-demo alerts-demo fleet-demo fleet-bench slo-demo \
	quant-demo quant-bench perfbench perfbench-test perfbench-ab

# tests/test_detector_block.py (the bit-identity gate holding push_block
# and push to the per-sample oracle in tests/detector_oracle.py) rides
# along here, so `make check` always re-proves the identity.
test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) scripts/check_no_print.py
	$(PYTHON) scripts/check_metric_names.py

# End-to-end smoke of the observability endpoint: serve a small alerting
# fleet on an ephemeral port, hit every route, lint the /metrics body.
http-smoke:
	$(PYTHON) scripts/http_smoke.py

check: lint test http-smoke fleet-demo slo-demo quant-demo

bench:
	$(PYTHON) -m pytest benchmarks -q

profile:
	$(PYTHON) -m repro --scale quick profile

faults:
	$(PYTHON) -m pytest tests -q -k "faults" && \
	$(PYTHON) -m repro --scale quick faults --incident-dir benchmarks/results/incidents

serve-bench:
	$(PYTHON) -m pytest benchmarks/test_bench_serve.py -q

# Parallel fold/grid scaling + cache warm-start numbers, archived to
# benchmarks/results/parallel_scaling.txt.
parallel-bench:
	$(PYTHON) -m pytest benchmarks/test_bench_parallel.py -q

# Quick serve workload with the dashboard rendered once to stdout, then
# the exposition linted — exercises the whole export path end to end.
tail-demo:
	mkdir -p benchmarks/results
	$(PYTHON) -m repro tail --once --streams 8 --duration 4 \
		--metrics-out benchmarks/results/serve_exposition.prom
	$(PYTHON) scripts/check_metric_names.py --exposition \
		benchmarks/results/serve_exposition.prom

# Small sharded-fleet run (bit-identity + worker-kill failover arms) as
# a fast end-to-end gate for `make check`; `timeout` guards wall clock
# so a wedged worker/supervisor fails the build instead of hanging it.
fleet-demo:
	timeout 300 $(PYTHON) -m repro fleet-bench --streams 12 --shards 3

# Full fleet scaling benchmark (>= 64 streams / 4 shards), archived to
# benchmarks/results/fleet_scaling.txt with the merged exposition linted.
fleet-bench:
	timeout 900 $(PYTHON) -m pytest benchmarks/test_bench_fleet.py -q

# Scenario-driven alert-pipeline evaluation with persistent event stores
# under benchmarks/results/alert_stores/; the report is archived for
# scripts/update_experiments_md.py (ALERTS placeholder).
alerts-demo:
	mkdir -p benchmarks/results
	$(PYTHON) -m repro alerts --duration 6 \
		--store-dir benchmarks/results/alert_stores \
		| tee benchmarks/results/alert_pipeline.txt

# Small quantized-serving run (float32 / int8 / int8+pruned arms with
# the bit-identity contract checks) as a fast end-to-end gate for
# `make check`; `timeout` guards wall clock.
quant-demo:
	timeout 600 $(PYTHON) -m repro --scale quick quant-bench \
		--streams 8 --duration 2

# Full quantized-serving benchmark (32 streams, speedup + sensitivity
# gates), archived to benchmarks/results/quant_scaling.txt.
quant-bench:
	timeout 900 $(PYTHON) -m pytest benchmarks/test_bench_quant.py -q

# SLO engine end to end: budget attribution, error-budget accounting and
# the synthetic-overload fast-burn alert, archived for
# scripts/update_experiments_md.py (SLO placeholder). Sleep-free — burn
# windows run on stream time — so it is cheap enough for `make check`.
slo-demo:
	mkdir -p benchmarks/results
	$(PYTHON) -m repro slo | tee benchmarks/results/slo_report.txt

# The serve benchmark declared in BENCHMARK.json: every workload once at
# seed 0, untraced (end-to-end metrics plus the correctness check).  Not
# part of `make check`: each run takes ~20 s of wall clock.
PERFBENCH_WORKLOADS := bulk_int8 packets_faulty wearable_push fleet_2shard

perfbench:
	for w in $(PERFBENCH_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 0 --trace 0 \
			|| exit 1; \
	done

# The benchmark's own tests (metric names, pins, span accounting).
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

# Base-vs-working-tree A/B of the serve benchmark: PAIRS alternating
# pairs per workload, each side from its own export, with per-metric
# medians, the base's spread and each delta against its BENCHMARK.json
# bound (see scripts/perfbench_ab.py).  BASE defaults to HEAD with
# uncommitted changes, else HEAD~1.  ~1 min per pair per workload.
PAIRS ?= 10
perfbench-ab:
	$(PYTHON) scripts/perfbench_ab.py --pairs $(PAIRS) $(if $(BASE),--base $(BASE))
