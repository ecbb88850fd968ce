# Convenience targets for the Information Bus reproduction.

PYTHON ?= python

.PHONY: install test bench pytest-bench lint examples quicktest all clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

bench:
	PYTHONPATH=src $(PYTHON) benchmarks/perf/run_perf.py

pytest-bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

lint:
	ruff check .
	$(PYTHON) tools/check_stats_surfaces.py

examples:
	PYTHONPATH=src $(PYTHON) -m repro all

quicktest:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -x -q --ignore=tests/properties \
	    --ignore=tests/integration

all: test bench

clean:
	rm -rf .pytest_cache .hypothesis build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
