# Convenience targets for the bdrmap reproduction.

PYTHON ?= python

.PHONY: install test bench bench-smoke bench-pytest bench-only examples validate clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/ -q

# The benchmark of record (bench/README.md): every workload of
# BENCHMARK.json, each in a fresh process.
bench:
	$(PYTHON) bench/run.py

bench-smoke:
	$(PYTHON) bench/run.py --smoke
	$(PYTHON) -m pytest bench/tests -q

# The older per-subsystem pytest benches.
bench-pytest:
	$(PYTHON) -m pytest benchmarks/ -q

bench-only:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

examples:
	@for example in examples/*.py; do \
		echo "== $$example"; \
		$(PYTHON) $$example || exit 1; \
	done

validate:
	$(PYTHON) examples/validation_study.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks *.egg-info
