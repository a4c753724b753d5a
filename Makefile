GO ?= go

.PHONY: build test race vet fmt check bench bench-json fuzz-smoke serve-smoke shard-smoke chaos-smoke subscribe-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# check is the pre-merge gate: formatting, static analysis, and the full
# suite under the race detector.
check: fmt vet race

bench:
	$(GO) test -bench . -benchtime 1x -run ^$$ ./...

# bench-json runs every benchmark (hot-path micro benches, the
# Figure-7/8 paper reproductions, and the delta-broadcast / wire-codec
# comparisons) with allocation stats and archives the results as
# machine-readable JSON. Raise BENCHTIME (e.g. 2s) for stable numbers;
# the 1x default is the CI smoke setting.
BENCHTIME ?= 1x
BENCH_JSON ?= BENCH_10.json

# The raw output lands in a temp file first so a benchmark failure (or
# a package timing out) fails the target instead of being swallowed by
# the pipe; -timeout 60m keeps the macro figure benchmarks inside the
# per-package budget at multi-second BENCHTIME settings.
bench-json:
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -timeout 60m -run ^$$ ./... > bench-raw.txt
	$(GO) run ./cmd/benchjson < bench-raw.txt > $(BENCH_JSON)
	rm bench-raw.txt

# shard-smoke runs the sharded-global-update equivalence battery under
# the race detector: with GlobalShards set, the final model must be
# byte-identical to the serial path across {clustream,denstream} x
# {local,tcp}, fall back transparently for algorithms
# without the capability, survive a checkpoint resume, and hold on the
# per-package randomized differential batteries.
shard-smoke:
	$(GO) test -race -count=1 -run '^TestSharded' .
	$(GO) test -race -count=1 -run '^TestShard|^TestReducerPool' ./internal/core/
	$(GO) test -race -count=1 -run '^TestSharded' ./internal/clustream/ ./internal/denstream/

# chaos-smoke proves elastic membership keeps the output bit-identical
# under churn: first the facade-level churn-equivalence battery (kill +
# fresh join mid-stream vs a clean fixed-membership run, both
# algorithms) under the race detector, then the full
# supervised-subprocess demo — SIGKILL a worker every few batches, the
# supervisor restarts it, the registry readmits it, and the run must end
# with joins >= kills and a byte-identical model (non-zero exit
# otherwise).
chaos-smoke:
	$(GO) test -race -count=1 -run '^TestChurnEquivalence' .
	$(GO) test -race -count=1 ./internal/membership/ ./internal/supervise/ ./internal/backoff/
	$(GO) run -race ./cmd/diststream chaos -records 4000 -kills 2 -kill-every 3

# subscribe-smoke runs the subscription-hub battery under the race
# detector: the 64-subscriber churn test (connect/kill/reconnect with
# cursor resume while the hub publishes), the local-replica equivalence
# battery ({clustream,denstream}: a replica built from deltas must be
# gob-identical to the published model), and the hub unit tests (plan
# lifecycle, cursor resolution, shedding, coalescing, retention races).
subscribe-smoke:
	$(GO) test -race -count=1 ./internal/subscribe/
	$(GO) test -race -count=1 -run '^TestRegistryRetained|^TestRegistryEviction' ./internal/serve/

# serve-smoke boots `diststream serve` on a live pipeline and exercises
# every serving endpoint end to end: readiness, assign, clusters, macro
# caching (the repeated query must be a cache hit), metrics, the load
# generator, and graceful shutdown.
serve-smoke:
	bash scripts/serve_smoke.sh

# fuzz-smoke runs each codec fuzzer briefly: corrupted checkpoint
# snapshots, model blobs, wire frames, model frames (decoded, then
# applied against an empty and a real base) and DSUB hello/model frames
# must error, never panic — and the wire fuzzer additionally holds the
# columnar codec differentially equal to a gob round trip. The vector fuzzer is differential rather
# than codec-shaped: the blocked many-vs-many argmin kernel must agree
# bit-for-bit with the scalar one-vs-many reference on random matrices
# (NaN/Inf coordinates included).
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzModelStateCodec$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzWireCodec$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzModelFrame$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDSUBFrames$$' -fuzztime $(FUZZTIME) ./internal/subscribe
	$(GO) test -run '^$$' -fuzz '^FuzzBatchNearest$$' -fuzztime $(FUZZTIME) ./internal/vector
