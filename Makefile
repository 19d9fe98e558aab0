# Convenience targets (see README for the underlying commands).

.PHONY: install test bench docs-check ledger ledger-test ledger-pairs gc-share bench-obs bench-serving experiments repro-check demo trace-demo analyze-demo faults-demo chaos-smoke chaos-fleet serve-demo serving-demo monitor-demo clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

docs-check:
	python tools/check_docs_links.py
	python tools/check_cli_examples.py
	python tools/check_one_spelling.py
	python tools/test_only_api.py --check
	python tools/config_keys.py --check docs/OPERATIONS.md
	python tools/trace_kinds.py --check docs/TRACING.md
	python tools/telemetry_catalog.py --check docs/TELEMETRY.md

ledger:
	python3 ledger/run.py

ledger-test:
	python -m pytest ledger/tests -q

# the claim protocol (ledger/README.md, "Claiming a gain later"):
#   make ledger-pairs PARENT=<rev> WORKLOAD=csp_dense [METRIC=setup_s] [GUARDS=1]
# METRIC picks the claimed end-to-end metric (default iter_s_p50);
# GUARDS=1 adds five pairs of every other workload, as one table
ledger-pairs:
	python3 tools/ledger_pairs.py --parent $(PARENT) --workload $(WORKLOAD) $(if $(METRIC),--metric $(METRIC)) $(if $(GUARDS),--guards)

# what the cyclic collector costs a workload (passes, seconds, census):
#   make gc-share WORKLOAD=csp_dense
gc-share:
	python3 tools/gc_share.py --workload $(WORKLOAD)

bench-serving:
	python -m repro bench-serving examples/serving_demo.json \
		--json BENCH_serving.json

bench-obs:
	python -m repro analyze examples/trace_demo.json \
		--sweep-gpus 2 4 8 --json BENCH_obs.json

experiments:
	python -m repro all --scale small

experiments-paper:
	python -m repro all --scale paper

repro-check:
	python -m repro repro-check

demo:
	python -m repro demo

trace-demo:
	python -m repro trace examples/trace_demo.json \
		--out trace_demo.trace.json --summary

analyze-demo:
	python -m repro analyze examples/analyze_demo.json

faults-demo:
	python -m repro faults examples/faults_demo.json \
		--json faults_demo.availability.json

chaos-smoke:
	python -m repro chaos examples/chaos_demo.json --seeds 10 \
		--json chaos_smoke.report.json

chaos-fleet:
	python -m repro chaos-fleet examples/chaos_fleet_demo.json \
		--json chaos_fleet.report.json

serve-demo:
	python -m repro serve examples/serve_demo.json \
		--json serve_demo.report.json

serving-demo:
	python -m repro bench-serving examples/serving_demo.json

monitor-demo:
	python -m repro monitor examples/serve_demo.json \
		--out monitor_demo.series.jsonl \
		--prom monitor_demo.metrics.prom \
		--json monitor_demo.report.json

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
