PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test identity-dump bench-pairs bench-selfcheck bench-smoke bench-perf bench-consistency bench-storage bench-campaign bench-mempool bench-gossip bench-sync bench-scale bench-shard bench-auth bench-check bench-all docs-test campaign

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

## One un-measured pass over every bench (what CI runs).  The storage
## bounded-hot-set gate runs at a reduced scale here; the full 1M run is
## `make bench-storage`.
bench-smoke:
	BENCH_STORAGE_SCALE=50000 $(PYTHON) -m pytest benchmarks/ -q --benchmark-disable

## Measured perf-core benches (incremental fork-choice gates included),
## emitting BENCH_perf_core.json for regression tracking.
bench-perf:
	$(PYTHON) -m pytest benchmarks/test_bench_perf_core.py -q \
		--benchmark-enable --benchmark-json=BENCH_perf_core.json

## Ancestry-index gates (batch checkers 10k/100k old-vs-new, 50k-deep
## prefix algebra, per-block memory), emitting BENCH_consistency.json.
bench-consistency:
	$(PYTHON) -m pytest benchmarks/test_bench_consistency.py -q \
		--benchmark-disable

## Storage gates (append throughput, cold reads, crash-recovery replay,
## 1M-block bounded hot set vs byte-identical reads), emitting
## BENCH_storage.json.  Override the scale with BENCH_STORAGE_SCALE.
bench-storage:
	$(PYTHON) -m pytest benchmarks/test_bench_storage.py -q \
		--benchmark-disable

## Campaign gates (28-cell grid ≥2× on 4 workers, serial-vs-parallel
## identical matrices, default column == classify_all), emitting
## BENCH_campaign.json.  Override the scale with BENCH_CAMPAIGN_DURATION.
bench-campaign:
	$(PYTHON) -m pytest benchmarks/test_bench_campaign.py -q \
		--benchmark-disable

## Mempool gates (batched ingest ≥10× vs per-tx validation at 100k tx,
## end-to-end committed tx/sec on two protocols, serial-vs-parallel
## identical mempool_stats), emitting BENCH_mempool.json.  Override the
## scale with BENCH_MEMPOOL_SCALE.
bench-mempool:
	$(PYTHON) -m pytest benchmarks/test_bench_mempool.py -q \
		--benchmark-disable

## Dissemination-transport gates (reconcile duplicate-relay ≤0.15 at
## fan-out ≥8 vs ≥0.5 flood, byte-identical committed chains across
## transports, serial-vs-parallel reconcile campaigns), emitting
## BENCH_gossip.json.  Override the horizon with BENCH_GOSSIP_DURATION.
bench-gossip:
	$(PYTHON) -m pytest benchmarks/test_bench_gossip.py -q \
		--benchmark-disable

## Fast-sync gates (frontier catch-up ≥10× vs naive flood replay over a
## 50k-block gap, lifecycle classification matrix on both transports,
## serial-vs-parallel determinism incl. sync stats), emitting
## BENCH_sync.json.  Override the gap with BENCH_SYNC_GAP.
bench-sync:
	$(PYTHON) -m pytest benchmarks/test_bench_sync.py -q \
		--benchmark-disable

## Large-N simulator gates (calendar queue ≥5× events/s vs the retained
## heap flood at N=10k, bounded bytes/node, propagation percentiles on
## four sparse overlays, 1k-node serial≡parallel campaign cell),
## emitting BENCH_scale.json.  Override the scale with BENCH_SCALE_N.
bench-scale:
	$(PYTHON) -m pytest benchmarks/test_bench_scale.py -q \
		--benchmark-disable

## Sharding gates (K-sweep aggregate throughput ≥0.7× linear at K=8,
## zero cross-shard atomicity violations under partition/churn/crash on
## both transports, K=1 byte-identity vs the single-chain pipeline,
## serial-vs-parallel shard campaigns), emitting BENCH_shard.json.
## Override the horizon with BENCH_SHARD_DURATION.
bench-shard:
	$(PYTHON) -m pytest benchmarks/test_bench_shard.py -q \
		--benchmark-disable

## Authenticated-pipeline gates (signed tx/s within 2× of unsigned with
## byte-identical chains, batched+cached verify ≥5× naive on a 50k gap,
## zero forged/equivocating blocks leaking into honest chains across
## transport × fault compositions, serial-vs-parallel auth campaigns),
## emitting BENCH_auth.json.  Override the horizon with
## BENCH_AUTH_DURATION.
bench-auth:
	$(PYTHON) -m pytest benchmarks/test_bench_auth.py -q \
		--benchmark-disable

## Validate every committed BENCH_*.json against the registered schemas
## (the same check CI's bench-trajectory job runs on fresh artifacts).
bench-check:
	$(PYTHON) -m repro.analysis.bench_schema --require-all

## The full (protocol × adversarial scenario) classification matrix,
## rendered to stdout (see `python -m repro.campaign --help`).
campaign:
	$(PYTHON) -m repro.campaign --workers 4

## Doctest every code example embedded in docs/*.md (fails on broken
## imports or drifted examples).
docs-test:
	$(PYTHON) -m doctest $(wildcard docs/*.md)

## Every paper-figure bench, measured, one JSON per run.
bench-all:
	$(PYTHON) -m pytest benchmarks/ -q \
		--benchmark-enable --benchmark-json=BENCH_all.json

## Byte-identity dump of every simulated result a refactor must keep
## (Table 1 defaults, preset cells, a 2×2×2 matrix, Byzantine-miner
## fingerprints): run on two checkouts and `cmp` the files.
identity-dump:
	@test -n "$(OUT)" || (echo "usage: make identity-dump OUT=<file>" >&2; exit 2)
	$(PYTHON) benchmarks/identity_dump.py $(OUT)

## A claimed events_per_wall_s gain: PAIRS alternated parent/change runs
## of bench/run.py on one workload (parent in a temporary git worktree),
## bench/compare.py per pair, and the win count.
PAIRS ?= 10
WORKLOAD ?= table1-default
bench-pairs:
	@test -n "$(PARENT)" || (echo "usage: make bench-pairs PARENT=<rev> [PAIRS=10] [WORKLOAD=...]" >&2; exit 2)
	$(PYTHON) benchmarks/bench_pairs.py $(PARENT) --pairs $(PAIRS) --workload $(WORKLOAD)
