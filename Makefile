# PrORAM reproduction -- common workflows.

PYTHON ?= python

.PHONY: install test test-report bench bench-fast perf perf-smoke profile examples gallery audit clean

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

profile:
	PYTHONPATH=src $(PYTHON) -m repro run -w locality:80 -s dyn --accesses 20000 --warmup 0 --profile

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/oblivious_kv_store.py
	$(PYTHON) examples/database_oram.py
	$(PYTHON) examples/timing_channel_demo.py
	$(PYTHON) examples/real_programs.py
	$(PYTHON) examples/stash_pressure.py
	$(PYTHON) examples/multicore_contention.py

gallery:
	$(PYTHON) examples/figure_gallery.py

audit:
	$(PYTHON) -m repro audit -w ocean_c -s dyn

clean:
	rm -rf build src/repro.egg-info .pytest_cache .hypothesis perf_out .perf_tmp_*
	find . -name __pycache__ -type d -exec rm -rf {} +
