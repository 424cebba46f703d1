# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test test-fast lint bench bench-quick bench-e2e-smoke examples artifacts clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

lint:           ## ruff (if installed) + docstring-coverage + doc-link + import gates
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff is not installed (python -m pip install ruff); skipping lint"; \
	fi
	$(PYTHON) tools/check_docstrings.py
	$(PYTHON) tools/check_doclinks.py
	PYTHONPATH=src $(PYTHON) -W error -c "import repro, repro.cli, repro.core, repro.resilience, repro.serve.service, repro.bench.autotunebench"
	PYTHONPATH=src $(PYTHON) -m pytest -q -p no:cacheprovider tests/test_import_budget.py

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow and not ooc_full" -x -q

bench:          ## full sweeps; regenerates every paper table/figure
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:    ## 5-point sweeps for a fast sanity pass
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-e2e-smoke: ## smoke of the end-to-end benchmark (benchmarks/e2e, ~2 min)
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e/test_e2e_smoke.py

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

artifacts: bench
	@echo "tables and figures written to benchmarks/results/"

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
