PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test identity-dump identity-check bench bench-gates bench-pairs bench-selfcheck docs-test campaign unreached

## Tier-1: the full unit/property/differential suite (fast, no benches).
test:
	$(PYTHON) -m pytest -x -q

## Self-check of the end-to-end benchmark harness (~10 s): one smoke
## pass over the six BENCHMARK.json workloads, every bench/trace.py
## boundary resolved against src/, every run attribute bench/cell.py
## reads exercised — so a rename under src/ fails here, not at
## benchmark time.
bench-selfcheck:
	$(PYTHON) -m pytest bench/tests -q

## The end-to-end benchmark: the six BENCHMARK.json workloads, each
## cell's numbers written with its host envelope (see bench/README.md).
## This is the only source of committed performance numbers.
bench:
	$(PYTHON) bench/run.py

## Every pass/fail gate under benchmarks/ — algorithmic ratios, storage
## rates, bounded memory, correctness at scale (docs/benchmarks.md has
## the table) — plus the paper-figure reproductions, unmeasured.
bench-gates:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-disable

## The full (protocol × adversarial scenario) classification matrix,
## rendered to stdout (see `python -m repro.campaign --help`).
campaign:
	$(PYTHON) -m repro.campaign --workers 4

## Doctest every code example embedded in docs/*.md (fails on broken
## imports or drifted examples).
docs-test:
	$(PYTHON) -m doctest $(wildcard docs/*.md)

## Byte-identity dump of every simulated result a refactor must keep
## (Table 1 defaults, preset cells, a 2×2×2 matrix, Byzantine-miner
## fingerprints): run on two checkouts and `cmp` the files.
identity-dump:
	@test -n "$(OUT)" || (echo "usage: make identity-dump OUT=<file>" >&2; exit 2)
	$(PYTHON) benchmarks/identity_dump.py $(OUT)

## The identity dump of PARENT (checked out in a temporary git worktree)
## and of the working tree, compared byte for byte: exit 1 and the
## differing line numbers when they differ.
identity-check:
	@test -n "$(PARENT)" || (echo "usage: make identity-check PARENT=<rev>" >&2; exit 2)
	$(PYTHON) benchmarks/identity_check.py $(PARENT)

## A claimed events_per_wall_s gain: PAIRS alternated parent/change runs
## of bench/run.py on one workload (parent in a temporary git worktree),
## bench/compare.py per pair, and the win count.
PAIRS ?= 10
WORKLOAD ?= table1-default
bench-pairs:
	@test -n "$(PARENT)" || (echo "usage: make bench-pairs PARENT=<rev> [PAIRS=10] [WORKLOAD=...]" >&2; exit 2)
	$(PYTHON) benchmarks/bench_pairs.py $(PARENT) --pairs $(PAIRS) --workload $(WORKLOAD)

## Every src/ function that the bench workloads, the identity dump, the
## baseline campaign and the paper experiments never enter, by module
## with line counts (benchmarks/unreached.py, about a minute); exits 1
## when their total exceeds the script's BUDGET_LINES.
unreached:
	$(PYTHON) benchmarks/unreached.py
