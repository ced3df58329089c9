# PrORAM reproduction -- common workflows.

PYTHON ?= python

.PHONY: install test test-report bench bench-fast perf perf-smoke perf-exact profile examples gallery audit loc clean

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

test-report:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-fast:
	REPRO_FAST=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

perf:
	PYTHONPATH=src $(PYTHON) benchmarks/perf/run.py

perf-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/perf/run.py --smoke
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/perf

# One 1-second, untraced run of every benchmark workload at SEED: the header
# (with sim_digest) and the result line of each.  sim_cycles_per_op,
# sim_digest and host_pycalls_per_op repeat to the digit per (commit, seed),
# so two checkouts' outputs can be diffed.
SEED ?= 1
perf-exact:
	@for workload in $$(cd benchmarks/perf && $(PYTHON) -c "import spec; print(*spec.ALL)"); do \
		PYTHONPATH=src $(PYTHON) benchmarks/perf/run.py --workload $$workload --seed $(SEED) \
			--seconds 1 --trace 0 | grep -E '^(# [a-z0-9_]+ \(|\{)' || exit 1; \
	done

profile:
	PYTHONPATH=src $(PYTHON) -m repro run -w locality:80 -s dyn --accesses 20000 --warmup 0 --profile

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/oblivious_kv_store.py
	PYTHONPATH=src $(PYTHON) examples/database_oram.py
	PYTHONPATH=src $(PYTHON) examples/timing_channel_demo.py
	PYTHONPATH=src $(PYTHON) examples/real_programs.py
	PYTHONPATH=src $(PYTHON) examples/stash_pressure.py
	PYTHONPATH=src $(PYTHON) examples/multicore_contention.py
	PYTHONPATH=src $(PYTHON) examples/secure_processor_sim.py

gallery:
	PYTHONPATH=src $(PYTHON) examples/figure_gallery.py

audit:
	PYTHONPATH=src $(PYTHON) -m repro audit -w ocean_c -s dyn

# Code-only lines (no docstrings, comments or blanks) per package of src/repro.
loc:
	$(PYTHON) tools/loc.py

clean:
	rm -rf build src/repro.egg-info .pytest_cache .hypothesis perf_out .perf_tmp_*
	find . -name __pycache__ -type d -exec rm -rf {} +
