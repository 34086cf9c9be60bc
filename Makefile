# Convenience targets for the fast-address-calculation reproduction.

PYTHON ?= python

.PHONY: install test test-fast lint-self sanitize bench bench-full experiments farm serve serve-smoke examples clean

install:
	pip install -e .

test: lint-self
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -x

lint-self:          ## lint the repo itself (ruff when available)
	$(PYTHON) -m compileall -q src tests benchmarks examples tools
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks tools; \
	else \
		echo "ruff not installed; ran compileall only"; \
	fi

sanitize:           ## whole-program sanitizer gate: suite clean + fixtures caught
	$(PYTHON) tools/sanitize_suite.py --sarif sanitize.sarif

bench:              ## representative 6-program slice (~5 min)
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-full:         ## the full 19-program reproduction (~25 min)
	REPRO_SUITE=all $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

experiments:        ## print every table/figure on the full suite
	for which in fig1 fig5 table1 fig3 table3 table4 fig2 fig6 table6; do \
		$(PYTHON) -m repro experiment $$which; echo; \
	done

JOBS ?= 4
farm:               ## parallel, artifact-cached full sweep (docs/experiments.md)
	$(PYTHON) -m repro farm run --jobs $(JOBS)

PORT ?= 8732
serve:              ## simulation-as-a-service on the farm store (docs/serving.md)
	$(PYTHON) -m repro serve --port $(PORT) --jobs $(JOBS)

serve-smoke:        ## the CI serve gate: API tests, live smoke, load generator
	$(PYTHON) -m pytest tests/serve/ -q
	$(PYTHON) tools/serve_smoke.py --store .serve-smoke-farm
	$(PYTHON) -m pytest benchmarks/test_serve_load.py -q -s

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex; echo; done

clean:
	rm -rf .pytest_cache .benchmarks .repro-farm .serve-smoke-farm src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
