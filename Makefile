# Developer entry points. Tier-1 verification remains
# `go build ./... && go test ./...` (see ROADMAP.md); `make check` runs
# that plus vet and the race-detector suites the telemetry layer relies on.

GO ?= go

.PHONY: build test race race-core vet lint check fuzz bench bench-check bench-docstore bench-docstore-check bench-wal bench-wal-check bench-shard bench-shard-check bench-wire bench-wire-check bench-suite clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full race sweep: every package under the race detector. internal/bench
# dominates the wall time; use race-core while iterating.
race:
	$(GO) test -race ./...

# Fast subset: the heavy concurrent suites (load tests, fan-out churn)
# where the race detector earns its keep on every edit, plus -count
# stresses of the two bookkeeping-before-reply ordering pins — the trace is
# retrievable, and the coalescer's flush is counted (E27 reads it), once the
# reply is observable. Both are scheduling races, so one pass proves little.
race-core:
	$(GO) test -race ./internal/telemetry ./internal/transport ./internal/docstore ./internal/core
	$(GO) test -race -count=20 -run TestTraceRetrievableOnceReplyObserved ./internal/transport
	$(GO) test -race -count=20 -run TestE27Shapes ./internal/bench

vet:
	$(GO) vet ./...

# Offline static analysis: go vet plus agoralint, the repo's custom
# analyzer suite (internal/lint). The suite type-checks the whole module
# (stdlib source importer, still offline) and builds a shared call graph,
# enforcing the determinism, nil-safe instrument, goroutine-join,
# checked-error, lock-free/zero-alloc read-path, atomics-discipline, and
# frozen-snapshot contracts. The Go build cache absorbs the stdlib
# type-checking work, so warm runs stay a few seconds. Suppressions
# require a reasoned `//lint:allow <analyzer> <reason>` directive.
lint: vet
	$(GO) run ./cmd/agoralint

check: build lint test race

# Decoder robustness: a short fixed-iteration fuzz of the four decoders that
# read bytes this process did not just write — the postings codec, the v2
# snapshot file (checksum re-stamped, so mutations reach the structure
# checks), the wire Query as the shard server serves it and the write-ahead
# log (cheap enough for every CI run — the seed corpora in codec_test.go,
# merge_test.go, badquery_test.go and fault_test.go already pin the tricky
# edges, so even 0 new execs still exercises them all). `go test -fuzz` takes
# one target per run, hence four commands. For a real expedition run e.g.
# `go test -fuzz FuzzPostingsCodec ./internal/docstore` with a time budget
# instead.
fuzz:
	$(GO) test -run XXX -fuzz FuzzPostingsCodec -fuzztime 2000x ./internal/docstore
	$(GO) test -run XXX -fuzz FuzzSnapshotV2 -fuzztime 2000x ./internal/docstore
	$(GO) test -run XXX -fuzz FuzzUnmarshalQuery -fuzztime 2000x ./internal/transport
	$(GO) test -run XXX -fuzz FuzzReplayWAL -fuzztime 2000x ./internal/docstore

# Ask-pipeline perf baseline: the sequential/parallel BenchmarkAsk pair,
# archived as JSON so future PRs have a trajectory to diff against.
bench:
	$(GO) test -run XXX -bench Ask -benchmem . | $(GO) run ./cmd/benchjson | tee BENCH_ask.json

# Regression gate: re-run the ask benchmarks and diff against the archived
# baseline. Fails (exit 1) when ns/op or allocs/op regressed more than
# BENCH_THRESHOLD (default 25%, generous because CI machines are noisy).
# Time-valued extra metrics (p50-ns/op, p99-ns/op reported via
# b.ReportMetric) are gated separately under BENCH_EXTRA_THRESHOLD —
# looser, because tail quantiles are far noisier than means.
BENCH_THRESHOLD ?= 0.25
BENCH_EXTRA_THRESHOLD ?= 0.50
bench-check:
	$(GO) test -run XXX -bench Ask -benchmem . | $(GO) run ./cmd/benchjson -compare BENCH_ask.json -threshold $(BENCH_THRESHOLD) -extra-threshold $(BENCH_EXTRA_THRESHOLD)

# Docstore read-path baseline: lock-free snapshot readers vs the coarse
# RWMutex the seed used, under background writer churn, plus the cache and
# cold-path micro-benchmarks. p50/p99 reader latency lands in the `extra`
# field of each line; archived for cross-PR diffing.
# 3s per benchmark: the parallel-search numbers come from free-running
# readers racing a writer, and on small hosts the default 1s window is
# dominated by whichever phase of the churn cycle it happens to sample.
bench-docstore:
	$(GO) test -run XXX -bench 'SearchParallel|SearchText' -benchtime 3s -benchmem ./internal/docstore | $(GO) run ./cmd/benchjson | tee BENCH_docstore.json

# Read-path regression gate, two tiers matched to how reproducible each
# number is. The serial SearchText paths (cold execution and the
# zero-alloc cache hit) are deterministic and held to the tight default
# thresholds. The SearchParallel<N> figures come from free-running readers
# racing a writer — on an oversubscribed host their run-to-run variance is
# ±60% on means and several-fold on tails, so they get a catastrophe fence
# instead: wide enough to never flap, narrow enough to catch losing
# block-max or the lock-free read path (a 5–25× cliff). The
# SearchParallelLocked baselines stay in the archive for context but are
# not gated — a convoy's latency is scheduler noise, not a contract.
BENCH_PARALLEL_THRESHOLD ?= 1.5
BENCH_PARALLEL_EXTRA_THRESHOLD ?= 9.0
bench-docstore-check:
	$(GO) test -run XXX -bench SearchText -benchtime 3s -benchmem ./internal/docstore | $(GO) run ./cmd/benchjson -compare BENCH_docstore.json -threshold $(BENCH_THRESHOLD) -extra-threshold $(BENCH_EXTRA_THRESHOLD)
	$(GO) test -run XXX -bench 'SearchParallel[0-9]' -benchtime 3s -benchmem ./internal/docstore | $(GO) run ./cmd/benchjson -compare BENCH_docstore.json -threshold $(BENCH_PARALLEL_THRESHOLD) -extra-threshold $(BENCH_PARALLEL_EXTRA_THRESHOLD)

# Docstore write-path baseline: group-commit writers vs the serialized
# one-fsync-per-op discipline the seed used, at 1/4/16 writers, plus the
# WAL replay (recovery) benchmark. Writer p50/p99 latency and wal-syncs/op
# land in the `extra` field of each line; archived for cross-PR diffing.
bench-wal:
	$(GO) test -run XXX -bench 'PutParallel|WALReplay' -benchmem ./internal/docstore | $(GO) run ./cmd/benchjson | tee BENCH_wal.json

# Write-path regression gate, two tiers like bench-docstore-check. WALReplay
# is a serial deterministic recovery scan and holds the tight default
# thresholds. The PutParallel<N> figures interleave group-commit batching
# with scheduler timing on an oversubscribed host, so they get the same
# catastrophe fence as the parallel read benchmarks: wide enough not to
# flap, narrow enough to catch losing group commit (a >10× sync-count
# cliff shows up in wal-syncs/op long before ns/op moves that far).
BENCH_WAL_THRESHOLD ?= 1.5
BENCH_WAL_EXTRA_THRESHOLD ?= 9.0
bench-wal-check:
	$(GO) test -run XXX -bench WALReplay -benchmem ./internal/docstore | $(GO) run ./cmd/benchjson -compare BENCH_wal.json -threshold $(BENCH_THRESHOLD) -extra-threshold $(BENCH_EXTRA_THRESHOLD)
	$(GO) test -run XXX -bench 'PutParallel[0-9]' -benchmem ./internal/docstore | $(GO) run ./cmd/benchjson -compare BENCH_wal.json -threshold $(BENCH_WAL_THRESHOLD) -extra-threshold $(BENCH_WAL_EXTRA_THRESHOLD)

# Sharded scatter-gather scaling curve: a fixed 128k-document corpus served
# by 1/2/4/8 shard servers over loopback TCP, asked under the sustained
# ingest schedule E26 uses (one 64-doc batch per 4 asks). Fixed iteration
# count so every shard width measures the identical ask+ingest schedule
# (256 asks = 64 batches = the full churn pool) instead of whatever b.N
# the 1s default lands on. p50/p99 ask latency and realized fan-out land
# in the `extra` field; archived for cross-PR diffing of the 1→8 curve.
bench-shard:
	$(GO) test -run XXX -bench ScatterShards -benchtime 256x -timeout 30m -benchmem ./internal/shard | $(GO) run ./cmd/benchjson | tee BENCH_shard.json

# Scaling-curve regression gate. Mixed ask+ingest numbers fold freeze
# cadence into ns/op, so run-to-run variance is wider than the serial
# read paths but far tighter than the free-running parallel benchmarks:
# a moderate fence catches losing shard pruning or the O(base/n) freeze
# win without flapping on scheduler noise.
BENCH_SHARD_THRESHOLD ?= 0.75
BENCH_SHARD_EXTRA_THRESHOLD ?= 6.0
bench-shard-check:
	$(GO) test -run XXX -bench ScatterShards -benchtime 256x -timeout 30m -benchmem ./internal/shard | $(GO) run ./cmd/benchjson -compare BENCH_shard.json -threshold $(BENCH_SHARD_THRESHOLD) -extra-threshold $(BENCH_SHARD_EXTRA_THRESHOLD)

# Wire-path baseline: the zero-alloc codec micro-benchmarks (AppendFrame
# staging and the pooled FrameReader against their allocating legacy
# counterparts), the coalesced TCP query round-trip against a faithful
# PR-9 replica, and the warm-cache scatter round-trip at 1 and 8 shards.
# allocs/op is the tentpole number; srv-/cli-frames-per-flush land in the
# `extra` field. Archived for cross-PR diffing of the wire trajectory.
bench-wire:
	{ $(GO) test -run XXX -bench 'FrameEncode|FrameDecode|QueryUnmarshal' -benchmem ./internal/wire ; \
	  $(GO) test -run XXX -bench QueryRoundtrip -benchmem ./internal/transport ; \
	  $(GO) test -run XXX -bench 'QueryRoundtrip(1|8)Shards' -benchtime 256x -timeout 30m -benchmem ./internal/shard ; } \
	| $(GO) run ./cmd/benchjson | tee BENCH_wire.json

# Wire-path regression gate, two tiers like the other checks. The codec
# micro-benchmarks and the single-connection round-trips are deterministic
# and hold the tight default thresholds; the batched round-trip and the
# sharded scatter pair fold scheduler timing into ns/op on an
# oversubscribed host, so they sit behind the looser shard fence.
bench-wire-check:
	$(GO) test -run XXX -bench 'FrameEncode|FrameDecode|QueryUnmarshal' -benchmem ./internal/wire | $(GO) run ./cmd/benchjson -compare BENCH_wire.json -threshold $(BENCH_THRESHOLD) -extra-threshold $(BENCH_EXTRA_THRESHOLD)
	$(GO) test -run XXX -bench 'QueryRoundtrip$$|QueryRoundtripLegacy' -benchmem ./internal/transport | $(GO) run ./cmd/benchjson -compare BENCH_wire.json -threshold $(BENCH_THRESHOLD) -extra-threshold $(BENCH_EXTRA_THRESHOLD)
	$(GO) test -run XXX -bench 'QueryRoundtripBatched' -benchmem ./internal/transport | $(GO) run ./cmd/benchjson -compare BENCH_wire.json -threshold $(BENCH_SHARD_THRESHOLD) -extra-threshold $(BENCH_SHARD_EXTRA_THRESHOLD)
	$(GO) test -run XXX -bench 'QueryRoundtrip(1|8)Shards' -benchtime 256x -timeout 30m -benchmem ./internal/shard | $(GO) run ./cmd/benchjson -compare BENCH_wire.json -threshold $(BENCH_SHARD_THRESHOLD) -extra-threshold $(BENCH_SHARD_EXTRA_THRESHOLD)

# Full experiment suite as benchmarks (see bench_test.go at the repo root).
bench-suite:
	$(GO) test -bench . -benchtime 1x -run XXX

clean:
	$(GO) clean ./...
