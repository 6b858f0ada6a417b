# Convenience targets for the repro project.

PYTHON ?= python

.PHONY: install dev test bench bench-json service-bench fastexp-bench batchverify-bench bench-e2e report examples lint-imports loc check-docs test-faults coverage obs-demo cluster-demo cluster-smoke campaign campaign-smoke clean

# Coverage floor enforced by `make coverage` and the CI coverage job.
# Measured line coverage of src/repro under the full suite is ~96%;
# the floor leaves headroom for tool and version skew, not for rot.
COV_FLOOR ?= 90

install:
	$(PYTHON) -m pip install -e .

dev:
	$(PYTHON) -m pip install -e '.[dev]'

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -p no:randomly -k "not Stateful and not hypothesis"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-json:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only --benchmark-json=bench_results.json

service-bench:
	$(PYTHON) -m pytest benchmarks/bench_service_throughput.py --benchmark-only --benchmark-json=bench_results.json

fastexp-bench:
	$(PYTHON) -m pytest benchmarks/bench_fastexp.py --benchmark-only --benchmark-json=BENCH_fastexp.json

# Batch-size -> throughput curve for RLC batch verification plus the
# shared-table worker spawn comparison; writes BENCH_batchverify.json
# (untracked; BENCH_fastexp.json is not touched).
batchverify-bench:
	$(PYTHON) -m pytest benchmarks/bench_batchverify.py --benchmark-only --benchmark-json=BENCH_batchverify.json

# The repo's benchmark (BENCHMARK.json): every workload of the default
# stack over real sockets, every end-to-end metric by name and unit,
# written to e2e.json (untracked).  The committed trajectory,
# BENCH_e2e.json, is appended to by tools/bench_pairs.py (alternating
# parent/change pairs).  See benchmarks/e2e/README.md.
bench-e2e:
	PYTHONPATH=src $(PYTHON) -m benchmarks.e2e run --seed 7 --out e2e.json

lint-imports:
	$(PYTHON) tools/lint_imports.py

# The deletion round's number (ROADMAP aim 2): lines of src/repro.
loc:
	@find src/repro -name '*.py' | xargs cat | wc -l

# Dead links, stale module/file refs, and api.md coverage over docs/
# and README.md.  See tools/check_docs.py.
check-docs:
	$(PYTHON) tools/check_docs.py

# Wide fault-schedule sweep (100 DEC + 40 PBS seeded schedules); the
# plain test run exercises a fast slice of the same matrix.  Also here,
# on both storage backends: the crash-before-every-storage-op sweep
# (tests/testing/test_storage_faults.py) and the storage conformance
# suite; and, in the same file, the replica prefix sweep (the replica
# after k shipped storage operations equals the store a crash before
# operation k leaves, and adoption from it recovers the same state).
test-faults:
	REPRO_FAULT_SMOKE=1 $(PYTHON) -m pytest tests/testing/ tests/service/test_storage.py -q

# Requires pytest-cov (in the dev extras; not vendored).
coverage:
	$(PYTHON) -m pytest tests/ -q --cov=repro --cov-report=term-missing --cov-fail-under=$(COV_FLOOR)

# Traced demo run: loads the toy market under full telemetry, drops
# trace.json / metrics.json / metrics.prom into ./telemetry/, then
# schema-checks the exports.  See docs/observability.md.
obs-demo:
	PYTHONPATH=src $(PYTHON) tools/obs_demo.py --out telemetry
	$(PYTHON) tools/check_telemetry.py telemetry

# Three-node sharded market administrator in one process: seeded
# deposit trace, node killed mid-trace, slice adopted by its peer,
# cluster-wide invariant sweep.  See docs/cluster.md.
cluster-demo:
	PYTHONPATH=src $(PYTHON) examples/cluster_market.py

# The subprocess version CI runs: a genuine SIGKILL against one of
# three node processes, then adoption + sweep.
cluster-smoke:
	$(PYTHON) tools/cluster_smoke.py

# One seeded mixed adversarial campaign against the live service
# (~100 parties, seconds).  See docs/simulation.md.
campaign:
	PYTHONPATH=src $(PYTHON) tools/run_campaign.py mixed --seed 2015

# The full campaign matrix the CI smoke job and the nightly cron run:
# every default campaign test plus the thousand-party mixed economy
# and the socket/cluster backends.
campaign-smoke:
	REPRO_CAMPAIGN_SMOKE=1 $(PYTHON) -m pytest tests/sim -q

report:
	$(PYTHON) -m repro.cli report --out experiment_report.md

examples:
	for s in examples/*.py; do echo "== $$s"; $(PYTHON) $$s || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis bench_results.json experiment_report.md telemetry
	find . -name __pycache__ -type d -exec rm -rf {} +
