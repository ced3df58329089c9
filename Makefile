# PrORAM reproduction -- common workflows.

PYTHON ?= python

.PHONY: install test bench bench-fast perf perf-smoke profile shards parallel interconnect treetop trace serve soak chaos examples gallery audit clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-report:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-fast:
	REPRO_FAST=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

perf:
	PYTHONPATH=src $(PYTHON) benchmarks/perf/run.py

perf-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/perf/run.py --smoke
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/perf

profile:
	PYTHONPATH=src $(PYTHON) -m repro run -w locality:80 -s dyn --accesses 20000 --warmup 0 --profile

shards:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_shards.py
	PYTHONPATH=src $(PYTHON) -m repro run -w locality:80 -s dyn --accesses 20000 --warmup 0 --shards 4

parallel:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_parallel.py
	PYTHONPATH=src $(PYTHON) -m repro parallel -w locality:80 -s dyn --parallel-workers 4 --accesses 8000 --fsck

interconnect:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_interconnect.py
	PYTHONPATH=src $(PYTHON) -m repro run -w locality:80 -s dyn --accesses 20000 --warmup 0 --dram-model channel --channels 4

treetop:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_treetop.py
	PYTHONPATH=src $(PYTHON) -m repro run -w locality:80 -s dyn --accesses 20000 --warmup 0 --dram-model channel --channels 4 --treetop 4

trace:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_trace_overhead.py
	PYTHONPATH=src $(PYTHON) -m repro metrics -w locality:80 -s dyn --accesses 20000

serve:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serve.py
	PYTHONPATH=src $(PYTHON) -m repro serve -s dyn --shards 4 --tenants 4 --requests 400 --metrics

soak:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_soak_faults.py

chaos:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_chaos.py

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
