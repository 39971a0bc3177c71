# Developer entry points. Tier-1 verification remains
# `go build ./... && go test ./...` (see ROADMAP.md); `make check` runs
# that plus vet and the race-detector suites the telemetry layer relies on.
# Performance is measured one way, `go run ./benchmark` (BENCHMARK.json,
# benchmark/README.md); `make pairs` runs it on two commits side by side.

GO ?= go

.PHONY: build test race race-core vet lint check fuzz determinism pairs answers loc profile clean

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
# write-ahead log, every wire message decoder in both reader modes, the
# frame header as DecodeFrame and FrameReader each read a stream, and the AQL
# lexer agora-query and agora-repl feed typed text, held to its reference — of
# the quickselect the vector and hybrid pools keep their k best with, held to
# sort-then-truncate, of the histogram cut that finds the vector pool's k-th
# best cosine, held to a sort, of the four-wide dot product the vector scan scores
# with, held to Dot bit for bit, and of the write path's term counter,
# docTerms, held to the reference tokenizer sorted and counted (cheap enough
# for every CI run — the seed corpora in codec_test.go, merge_test.go,
# badquery_test.go, fault_test.go, wire/fuzz_test.go, topk_test.go,
# feature/vector_test.go, terms_test.go and query/reference_test.go already
# pin the tricky edges, so even 0 new execs still exercises them all).
# `go test -fuzz` takes one target per run, hence eleven commands. For a real expedition run
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
	$(GO) test -run XXX -fuzz FuzzKthBest -fuzztime 2000x ./internal/docstore
	$(GO) test -run XXX -fuzz FuzzDot4 -fuzztime 2000x ./internal/feature
	$(GO) test -run XXX -fuzz FuzzDocTerms -fuzztime 2000x ./internal/docstore
	$(GO) test -run XXX -fuzz FuzzParse -fuzztime 2000x ./internal/query

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
# bounds. The files, and each side's reports, stay in .bench_build/pairs/;
# each invocation starts both afresh.
BASE ?= HEAD
W ?= node_durable
N ?= 10
SEED ?= 1
PAIRS := .bench_build/pairs

# $(call build-base,<dir>,<package>) builds <package> at BASE into <dir>/base
# from a git worktree at <dir>/src, which it removes also when the build fails.
define build-base
rm -rf $(1)/src && git worktree prune && mkdir -p $(1)
git worktree add --detach $(1)/src $(BASE)
cd $(1)/src && $(GO) build -o ../base $(2); \
	status=$$?; git worktree remove --force $(1)/src; exit $$status
endef

pairs:
	$(call build-base,$(PAIRS),./benchmark)
	$(GO) build -o $(PAIRS)/head ./benchmark
	rm -f $(PAIRS)/$(W)-$(SEED)-base.jsonl $(PAIRS)/$(W)-$(SEED)-head.jsonl \
		$(PAIRS)/$(W)-$(SEED)-base.log $(PAIRS)/$(W)-$(SEED)-head.log
	for i in $$(seq $(N)); do \
		sides="base head"; [ $$((i % 2)) = 0 ] && sides="head base"; \
		for side in $$sides; do \
			$(PAIRS)/$$side -workload $(W) -seed $(SEED) -seconds 15 \
				-out $(PAIRS)/$(W)-$(SEED)-$$side.jsonl >/dev/null 2>>$(PAIRS)/$(W)-$(SEED)-$$side.log || exit 1; \
		done; \
	done
	$(GO) run ./benchmark -compare $(PAIRS)/$(W)-$(SEED)-base.jsonl $(PAIRS)/$(W)-$(SEED)-head.jsonl

# The answers of a change: `make answers BASE=<ref>` builds agora-bench at BASE
# (checked out in a git worktree under .bench_build/, removed once built) and
# from the working tree, runs both at -scale 1 and seeds 1, 7 and 42, and
# compares each seed's two outputs with cmp. A difference fails, naming the
# output files that differ; they stay in .bench_build/answers/.
ANSWERS := .bench_build/answers
ANSWER_SEEDS := 1 7 42

answers:
	$(call build-base,$(ANSWERS),./cmd/agora-bench)
	$(GO) build -o $(ANSWERS)/head ./cmd/agora-bench
	status=0; for seed in $(ANSWER_SEEDS); do \
		for side in base head; do \
			$(ANSWERS)/$$side -seed $$seed -scale 1 > $(ANSWERS)/seed$$seed-$$side.txt || exit 1; \
		done; \
		cmp $(ANSWERS)/seed$$seed-base.txt $(ANSWERS)/seed$$seed-head.txt || { \
			echo "answers differ at seed $$seed: $(ANSWERS)/seed$$seed-head.txt"; status=1; }; \
	done; exit $$status

# The size of a change: `make loc BASE=<ref>` prints, per package, the net
# non-test Go lines (added less deleted) between BASE and the working tree,
# then their total. Only tracked files count: `git add` a new file first.
loc:
	@git diff --no-renames --numstat $(BASE) -- '*.go' ':!*_test.go' | awk '\
		{ dir = $$3; sub(/\/[^\/]*$$/, "", dir); if (dir == $$3) dir = "."; \
		  net[dir] += $$1 - $$2; total += $$1 - $$2 } \
		END { for (d in net) printf "%+7d  %s\n", net[d], d | "sort -k2"; \
		      close("sort -k2"); printf "%+7d  total\n", total }'

# Where an in-package Go benchmark spends its CPU: `make profile
# B=BenchmarkMarketAsk P=./internal/core` runs that benchmark alone (no tests)
# for 5 s, writes its CPU profile to .bench_build/profile/<B>.prof (the test
# binary beside it) and prints the head of `go tool pprof -top -cum`; read the
# rest with `go tool pprof .bench_build/profile/<B>.prof`.
B ?= BenchmarkMarketAsk
P ?= ./internal/core
PROFILE := .bench_build/profile

profile:
	mkdir -p $(PROFILE)
	$(GO) test -run '^$$' -bench '^$(B)$$' -benchtime 5s -benchmem \
		-cpuprofile $(PROFILE)/$(B).prof -o $(PROFILE)/$(B).test $(P)
	$(GO) tool pprof -top -cum $(PROFILE)/$(B).test $(PROFILE)/$(B).prof | head -40

clean:
	$(GO) clean ./...
