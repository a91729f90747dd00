# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install lint lint-source test test-fast test-robustness test-verify test-exact test-service test-telemetry test-chaos test-sanitizer bench perfbench-selftest perfbench-gate paper-tables bench-tables bench-full experiments examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# Repository invariants (fault points, trace catalogue, wall-clock
# use, lock registry, exit-code registry), the concurrency rules over
# the package's own source (docs/ANALYSIS.md, "Concurrency rules"),
# plus mypy when it is available (CI installs it; see pyproject.toml
# for the configuration).
lint: lint-source
	$(PYTHON) tools/check_invariants.py
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping type check"; \
	fi

# The CON001-CON004 static race/deadlock pass alone.
lint-source:
	$(PYTHON) -m repro.cli lint --source

test:
	$(PYTHON) -m pytest tests/

# Skip the @pytest.mark.slow cases (heavy differential comparisons).
test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# The resilience layer: budgets, degradation ladder, fault injection,
# transactional commits and the hardened CLI (docs/ROBUSTNESS.md).
test-robustness:
	$(PYTHON) -m pytest tests/test_resilience.py tests/test_faults.py tests/test_cli.py

# Checkpoint/resume and the independent verifier (docs/VERIFICATION.md).
test-verify:
	$(PYTHON) -m pytest tests/test_checkpoint.py tests/test_verify.py

# The fault-tolerant allocation service: durable queue, supervised
# retry, crash recovery, verified result cache (docs/SERVICE.md).
# The service soak additionally rides `pytest -m faults`.
test-service:
	$(PYTHON) -m pytest tests/ -m service

# The telemetry plane (docs/OBSERVABILITY.md): Prometheus exposition,
# cross-process telemetry harvest, structured logs, per-job traces —
# unit/e2e pytest cases plus the real-daemon smoke that leaves its
# scrape and merged trace in telemetry-artifacts/.
test-telemetry:
	$(PYTHON) -m pytest tests/ -m "telemetry and not slow"
	$(PYTHON) tools/telemetry_smoke.py --out telemetry-artifacts

# Seeded chaos soak of the process-isolated service: children are
# SIGKILLed/SIGSTOPped, jobs blow their memory caps, journal writes
# drop — and no accepted job may be lost (docs/ROBUSTNESS.md).  Set
# REPRO_CHAOS_ARTIFACTS=DIR to keep failing spools for post-mortem.
test-chaos:
	$(PYTHON) -m pytest tests/ -m "chaos and not slow"

# Runtime lock sanitizer: the dedicated cross-check cases, then the
# whole service + chaos suites replayed under instrumented locks —
# every observed acquisition order is checked against the static
# lock-order graph at each test's teardown (docs/ANALYSIS.md).
test-sanitizer:
	$(PYTHON) -m pytest tests/ -m sanitizer
	REPRO_LOCKCHECK=1 $(PYTHON) -m pytest tests/ -m "(service or chaos) and not slow"

# The exact branch-and-bound backend and its optimality-gap
# differential harness against the greedy flow (docs/EXACT.md).
test-exact:
	$(PYTHON) -m pytest tests/ -m exact

# Curated perf workloads, checked against the committed baseline
# (BENCH_seed.json); a deterministic regression exits 5.
bench:
	$(PYTHON) -m repro.cli bench --label run --compare BENCH_seed.json

# The perfbench harness on tiny inputs: every workload's correctness
# gate and the by-name wrapping of each traced layer (perfbench/).
perfbench-selftest:
	$(PYTHON) perfbench/selftest.py

# The same correctness gates at full size: one pass of every perfbench
# workload at the default seed and the held-out one.  Fails on any
# non-zero exit, and when a run's deterministic work counters (its
# `counters {...}` line: states explored, throughput checks, search
# nodes, cache hits) differ from tools/perfbench_counters.json.  That
# file holds the expected counters per workload and seed; a change that
# only makes the program faster leaves them as they are, and a change
# that alters the work on purpose records the new values there.
PERFBENCH_WORKLOADS = flow-mixed exact-corpus analysis-corpus service-mix
PERFBENCH_SEEDS = 1 1009
perfbench-gate:
	@for seed in $(PERFBENCH_SEEDS); do \
		for workload in $(PERFBENCH_WORKLOADS); do \
			echo "perfbench-gate: $$workload seed $$seed"; \
			report=$$($(PYTHON) perfbench/run.py --workload $$workload --seed $$seed \
				--seconds 0) || { printf '%s\n' "$$report"; exit 1; }; \
			printf '%s\n' "$$report" \
				| $(PYTHON) tools/check_perfbench_counters.py $$workload $$seed \
				|| exit 1; \
		done; \
	done

# The paper-table reproductions under benchmarks/ as plain tests, timing
# off: they assert the paper's Table 3 binding rows and the Table 4 and 5
# shapes through the binding, constraint and slice code.
paper-tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q

# pytest-benchmark tables reproducing the paper's result tables.
bench-tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# The paper's full grid: 3 sequences x 3 architecture variants.
bench-full:
	REPRO_BENCH_SEQUENCES=3 REPRO_BENCH_ARCHS=3 REPRO_BENCH_FULL_H263=1 \
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

experiments:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/paper_example.py
	$(PYTHON) examples/throughput_analysis.py
	$(PYTHON) examples/multimedia_system.py
	$(PYTHON) examples/design_space_exploration.py --apps 10
	$(PYTHON) examples/trace_and_buffers.py
	$(PYTHON) examples/csdf_analysis.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
