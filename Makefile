# Developer entry points. Tier-1 verification remains
# `go build ./... && go test ./...` (see ROADMAP.md); `make check` runs
# that plus vet and the race-detector suites the telemetry layer relies on.
# Performance is measured one way, `go run ./benchmark` (BENCHMARK.json,
# benchmark/README.md); `make pairs` runs it on two commits side by side.

GO ?= go

.PHONY: build test race race-core vet lint check fuzz determinism pairs clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full race sweep: every package under the race detector; use race-core
# while iterating.
race:
	$(GO) test -race ./...

# Fast subset: the heavy concurrent suites (load tests, asks under provider
# churn, concurrent scatter asks sharing the router's statistics caches and
# clients) where the race detector earns its keep on every edit, plus -count
# stresses of the two bookkeeping-before-reply ordering pins — the trace is
# retrievable, and the server's frame count already holds the reply, the
# moment a Client.Query returns — of the scatter asks held to the brute-force ranking
# at the epoch they name while a writer runs, of the reader that keeps
# asking a held snapshot while later windows fold tombstones into its
# segments' successors and tier merges replace them, and of compaction
# against the committer: it encodes documents from the snapshot it pinned
# while the committer marshals puts into the log's reused record buffer, and
# it swaps that log. All five are scheduling races — where in a merge the
# reader's walk falls, or a window in a compaction, is up to the scheduler —
# so one pass proves little.
race-core:
	$(GO) test -race ./internal/telemetry ./internal/transport ./internal/shard ./internal/docstore ./internal/core
	$(GO) test -race -count=20 -run TestTraceRetrievableOnceReplyObserved ./internal/transport
	$(GO) test -race -count=20 -run TestFrameCountedBeforeReplyObserved ./internal/transport
	$(GO) test -race -count=5 -run TestScatterExactUnderConcurrentWrites ./internal/shard
	$(GO) test -race -count=5 -run TestHeldSnapshotSurvivesLaterWindows ./internal/docstore
	$(GO) test -race -count=5 -run 'TestCompactConcurrentWithWrites|TestGroupCommitCrashImage' ./internal/docstore

vet:
	$(GO) vet ./...

# Offline static analysis: go vet plus agoralint, the repo's custom
# analyzer suite (internal/lint). The suite type-checks the whole module
# (stdlib source importer, still offline) and builds a shared call graph,
# enforcing the determinism, goroutine-join, checked-error,
# lock-free/zero-alloc read-path, atomics-discipline, and frozen-snapshot
# contracts (nil-safe telemetry instruments are a test in that package).
# The Go build cache absorbs the stdlib type-checking work, so warm runs
# stay a few seconds. Suppressions require a reasoned
# `//lint:allow <analyzer> <reason>` directive.
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
# sort-then-truncate, of the four-wide dot product the vector scan scores
# with, held to Dot bit for bit, and of the write path's term counter,
# docTerms, held to the reference tokenizer sorted and counted (cheap enough
# for every CI run — the seed corpora in codec_test.go, merge_test.go,
# badquery_test.go, fault_test.go, wire/fuzz_test.go, topk_test.go,
# feature/vector_test.go and terms_test.go already pin the tricky edges, so
# even 0 new execs still exercises them all). `go test -fuzz` takes one
# target per run, hence nine commands. For a real expedition run
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
	$(GO) test -run XXX -fuzz FuzzDocTerms -fuzztime 2000x ./internal/docstore

# The experiment suite's tables are a function of -seed and -scale: agora-bench
# reads no clock, so two runs at one seed and scale print the same bytes.
# Two runs at a fifth of full scale (a few seconds), compared with cmp; the
# outputs stay in .determinism/ (gitignored) to diff when they differ.
determinism:
	mkdir -p .determinism
	$(GO) run ./cmd/agora-bench -seed 1 -scale 0.2 > .determinism/a.txt
	$(GO) run ./cmd/agora-bench -seed 1 -scale 0.2 > .determinism/b.txt
	cmp .determinism/a.txt .determinism/b.txt

# A timing claim is alternating pairs of runs of one workload, measured in
# one session: `make pairs BASE=<ref> W=<workload> [N=10] [SEED=1]` builds the
# benchmark at BASE (checked out in a git worktree under .bench_build/, removed
# once built) and from the working tree, runs N pairs of -seconds 15 runs,
# the side that goes first alternating, each side appending its result lines
# (-out) to its own file, and compares the two files under BENCHMARK.json's
# bounds. The files, and each side's reports, stay in .bench_build/pairs/.
BASE ?= HEAD
W ?= node_durable
N ?= 10
SEED ?= 1
PAIRS := .bench_build/pairs

pairs:
	rm -rf $(PAIRS)/src && git worktree prune && mkdir -p $(PAIRS)
	git worktree add --detach $(PAIRS)/src $(BASE)
	cd $(PAIRS)/src && $(GO) build -o ../base ./benchmark; \
		status=$$?; git worktree remove --force $(PAIRS)/src; exit $$status
	$(GO) build -o $(PAIRS)/head ./benchmark
	rm -f $(PAIRS)/$(W)-$(SEED)-base.jsonl $(PAIRS)/$(W)-$(SEED)-head.jsonl
	for i in $$(seq $(N)); do \
		sides="base head"; [ $$((i % 2)) = 0 ] && sides="head base"; \
		for side in $$sides; do \
			$(PAIRS)/$$side -workload $(W) -seed $(SEED) -seconds 15 \
				-out $(PAIRS)/$(W)-$(SEED)-$$side.jsonl >/dev/null 2>>$(PAIRS)/$(W)-$(SEED)-$$side.log || exit 1; \
		done; \
	done
	$(GO) run ./benchmark -compare $(PAIRS)/$(W)-$(SEED)-base.jsonl $(PAIRS)/$(W)-$(SEED)-head.jsonl

clean:
	$(GO) clean ./...
