# Developer entry points. Tier-1 verification remains
# `go build ./... && go test ./...` (see ROADMAP.md); `make check` runs
# that plus vet and the race-detector suites the telemetry layer relies on.
# Performance is measured one way, `go run ./benchmark` (BENCHMARK.json,
# benchmark/README.md), and has no target here.

GO ?= go

.PHONY: build test race race-core vet lint check fuzz clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full race sweep: every package under the race detector; use race-core
# while iterating.
race:
	$(GO) test -race ./...

# Fast subset: the heavy concurrent suites (load tests, fan-out churn,
# concurrent scatter asks sharing the router's statistics caches and
# clients) where the race detector earns its keep on every edit, plus -count
# stresses of the two bookkeeping-before-reply ordering pins — the trace is
# retrievable, and the coalescer's flush is counted (E27 reads it), once the
# reply is observable — of the scatter asks held to the brute-force ranking
# at the epoch they name while a writer runs, and of the reader that keeps
# asking a held snapshot while later windows fold tombstones into its
# segments' successors and tier merges replace them. All four are scheduling races —
# where in a merge the reader's walk falls is up to the scheduler — so one
# pass proves little.
race-core:
	$(GO) test -race ./internal/telemetry ./internal/transport ./internal/shard ./internal/docstore ./internal/core
	$(GO) test -race -count=20 -run TestTraceRetrievableOnceReplyObserved ./internal/transport
	$(GO) test -race -count=20 -run TestE27Shapes ./internal/bench
	$(GO) test -race -count=5 -run TestScatterExactUnderConcurrentWrites ./internal/shard
	$(GO) test -race -count=5 -run TestHeldSnapshotSurvivesLaterWindows ./internal/docstore

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

# Decoder robustness and kernel identity: a short fixed-iteration fuzz of the
# decoders that read bytes this process did not just write — the postings
# codec, the v2 snapshot file (checksum re-stamped, so mutations reach the
# structure checks), the wire Query as the shard server serves it, the
# write-ahead log, every wire message decoder in both reader modes and the
# frame header as DecodeFrame and FrameReader each read a stream — of
# the quickselect the vector and hybrid pools keep their k best with, held to
# sort-then-truncate, and of the four-wide dot product the vector scan scores
# with, held to Dot bit for bit (cheap enough for every CI run — the seed
# corpora in codec_test.go, merge_test.go, badquery_test.go, fault_test.go,
# wire/fuzz_test.go, topk_test.go and feature/vector_test.go already pin the
# tricky edges, so even 0 new execs still exercises them all). `go test -fuzz`
# takes one target per run, hence eight commands. For a real expedition run
# e.g. `go test -fuzz FuzzPostingsCodec ./internal/docstore` with a time
# budget instead.
fuzz:
	$(GO) test -run XXX -fuzz FuzzPostingsCodec -fuzztime 2000x ./internal/docstore
	$(GO) test -run XXX -fuzz FuzzSnapshotV2 -fuzztime 2000x ./internal/docstore
	$(GO) test -run XXX -fuzz FuzzUnmarshalQuery -fuzztime 2000x ./internal/transport
	$(GO) test -run XXX -fuzz FuzzReplayWAL -fuzztime 2000x ./internal/docstore
	$(GO) test -run XXX -fuzz FuzzWireDecoders -fuzztime 2000x ./internal/wire
	$(GO) test -run XXX -fuzz FuzzFrames -fuzztime 2000x ./internal/wire
	$(GO) test -run XXX -fuzz FuzzSelectBest -fuzztime 2000x ./internal/docstore
	$(GO) test -run XXX -fuzz FuzzDot4 -fuzztime 2000x ./internal/feature

clean:
	$(GO) clean ./...
