# Convenience targets for the SCHEMATIC reproduction.

PYTHON ?= python

.PHONY: test sweep check check-bounds check-transval fuzz metrics experiments experiments-quick trace export examples clean

test:
	$(PYTHON) -m pytest tests/

# Deep fault-injection suite: exhaustive boundary sweeps and the
# differential grid (deselected from plain `make test` by the
# `-m "not sweep"` default in pyproject.toml).
sweep:
	$(PYTHON) -m pytest tests/ -m sweep

# Static certification of every program x technique pair (corpus +
# benchmarks; infeasible pairs are skipped). Exit code reflects gating
# findings, so this doubles as a CI gate.
check:
	$(PYTHON) -m repro.staticcheck --programs all --techniques all

# Loop-bound annotation verification on the *source* modules (no
# placement pass): unsound @maxiter, dead branches, provable OOB.
check-bounds:
	$(PYTHON) -m repro.staticcheck --bounds --programs all

# Every rule family over the full matrix (`--all`): the base analyses,
# memory-consistency certification (all CONS rules, as `--consistency`)
# and translation validation (every placed module must be a certified
# refinement of its source, TV rules), in one merged report whose SARIF
# document CI uploads as an artifact. The text report runs cold against
# a freshly emptied private report cache, so every proof is re-derived
# from nothing exactly once; the SARIF document is then written from
# that cache instead of proving the whole matrix a second time.
CHECK_TRANSVAL_CACHE = .bench_build/check-transval-cache

check-transval:
	rm -rf $(CHECK_TRANSVAL_CACHE)
	REPRO_CACHE=1 $(PYTHON) -m repro.staticcheck --programs all \
		--techniques all --all --cache-dir $(CHECK_TRANSVAL_CACHE)
	REPRO_CACHE=1 $(PYTHON) -m repro.staticcheck --programs all \
		--techniques all --all --cache-dir $(CHECK_TRANSVAL_CACHE) \
		--format sarif > staticcheck-all.sarif

fuzz:
	$(PYTHON) -m repro.testkit fuzz

# Metered quick evaluation: every worker writes a metrics-<pid>.jsonl
# sidecar under metrics/, the manifest embeds the merged rollup, and the
# CLI renders the human table. See docs/observability.md.
metrics:
	$(PYTHON) -m repro.experiments.run_all --quick --jobs auto \
		--metrics --metrics-dir metrics \
		--json metrics/manifest.json > /dev/null
	$(PYTHON) -m repro.telemetry metrics metrics

experiments:
	$(PYTHON) -m repro.experiments.run_all --jobs auto

experiments-quick:
	$(PYTHON) -m repro.experiments.run_all --quick --jobs auto

# Traced quick evaluation (serial and cold, so every cell's runtime
# events land in the parent trace; a cached cell emits none): writes
# traces/run_all.jsonl + traces/run_all.chrome.json (load in
# https://ui.perfetto.dev) and a run manifest, then renders the
# segment-energy headroom report — exit 1 if any observed window exceeds
# its certified bound. See docs/observability.md.
trace:
	$(PYTHON) -m repro.experiments.run_all --quick --no-cache \
		--trace-dir traces --json traces/manifest.json > /dev/null
	$(PYTHON) -m repro.telemetry report traces/run_all.jsonl

export:
	$(PYTHON) -m repro.experiments.export artifacts/

examples:
	@for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex; done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis artifacts
