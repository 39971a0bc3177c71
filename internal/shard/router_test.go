package shard

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/docstore"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// testCorpus generates a deterministic Zipfian corpus: 16 topics, so the
// topic-keyed placement spreads over every shard count under test.
func testCorpus(t testing.TB, n int) ([]*docstore.Document, *workload.Generator) {
	t.Helper()
	g := workload.NewGenerator(42, 16, 16)
	out := make([]*docstore.Document, 0, n)
	for _, d := range g.GenCorpus(n, 1.1, int64(time.Hour)) {
		out = append(out, d.Doc)
	}
	return out, g
}

// testQueries mixes the three shapes a scatter must get right: topical
// (concentrated on one shard), common (touching every shard), and mixed.
func testQueries(g *workload.Generator) []string {
	qs := []string{
		g.Common[0] + " " + g.Common[1] + " " + g.Common[2],
		"zzz no such term anywhere",
	}
	for i := 0; i < 6; i++ {
		v := g.Topics[i%len(g.Topics)].Vocab
		qs = append(qs,
			v[0]+" "+v[1],
			v[2]+" "+g.Common[(i+3)%len(g.Common)],
		)
	}
	return qs
}

func memShard(t testing.TB) *docstore.Store {
	t.Helper()
	st, err := docstore.Open(docstore.Options{ConceptDim: 16, Seed: 7})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// testCluster is n agora-node shard servers over real TCP plus the routing
// map pointing at them.
type testCluster struct {
	m       *Map
	stores  map[string]*docstore.Store
	servers map[string]*transport.Server
}

// startCluster partitions docs across n shards by DocKey and serves each
// partition from its own transport server on a loopback listener.
func startCluster(t testing.TB, n int, docs []*docstore.Document) *testCluster {
	t.Helper()
	tc := &testCluster{
		m:       NewUniform(ids(n)),
		stores:  make(map[string]*docstore.Store, n),
		servers: make(map[string]*transport.Server, n),
	}
	parts := make(map[string][]*docstore.Document, n)
	for _, d := range docs {
		id := tc.m.Locate(DocKey(d)).ID
		parts[id] = append(parts[id], d)
	}
	for _, mem := range tc.m.Members() {
		st := memShard(t)
		if err := st.PutBatch(parts[mem.ID]); err != nil {
			t.Fatalf("seed %s: %v", mem.ID, err)
		}
		tc.stores[mem.ID] = st
		tc.serve(t, mem.ID)
	}
	return tc
}

// serve starts (or restarts) the transport server for shard id and records
// its dial address in the map.
func (tc *testCluster) serve(t testing.TB, id string) {
	t.Helper()
	mem := tc.m.Locate(tc.memberRange(t, id))
	srv := transport.NewServer(id, tc.stores[id])
	srv.ShardStart, srv.ShardEnd = mem.Start, mem.End
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	tc.servers[id] = srv
	tc.m.SetAddrs(id, ln.Addr().String())
}

func (tc *testCluster) memberRange(t testing.TB, id string) uint64 {
	t.Helper()
	for _, mem := range tc.m.Members() {
		if mem.ID == id {
			return mem.Start
		}
	}
	t.Fatalf("no member %q", id)
	return 0
}

func (tc *testCluster) router(t testing.TB, opts Options) *Router {
	t.Helper()
	r, err := NewRouter(tc.m, opts)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// assertIdentical requires the scatter answer to be bit-identical to the
// monolithic hits: same documents, same order, same float64 scores.
func assertIdentical(t *testing.T, label string, got []wire.ResultItem, want []docstore.Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, monolithic %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].DocID != want[i].Doc.ID || got[i].Score != want[i].Score {
			t.Fatalf("%s: pos %d = (%s, %v), monolithic (%s, %v)",
				label, i, got[i].DocID, got[i].Score, want[i].Doc.ID, want[i].Score)
		}
	}
}

// TestScatterMatchesMonolithic pins the tentpole invariant: at every shard
// count the merged scatter top-k is bit-identical to a single node holding
// the whole corpus (same docs, same order, same scores — the
// TestSnapshotMatchesMonolithic pattern applied across processes).
func TestScatterMatchesMonolithic(t *testing.T) {
	docs, g := testCorpus(t, 600)
	mono := memShard(t)
	if err := mono.PutBatch(docs); err != nil {
		t.Fatalf("seed mono: %v", err)
	}
	queries := testQueries(g)
	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			tc := startCluster(t, n, docs)
			r := tc.router(t, Options{Telemetry: reg})
			for _, q := range queries {
				res := r.Ask(q, 10)
				if res.Partial || len(res.Errors) > 0 {
					t.Fatalf("q=%q: partial=%v errors=%v", q, res.Partial, res.Errors)
				}
				if res.Fanout+res.Pruned != n {
					t.Fatalf("q=%q: fanout %d + pruned %d != %d shards", q, res.Fanout, res.Pruned, n)
				}
				assertIdentical(t, fmt.Sprintf("n=%d q=%q", n, q), res.Items, mono.SearchText(q, 10))
			}
			// Second pass, nothing written in between: every shard answers
			// from its result cache (keyed on the statistics the router
			// ships), the router from its term memo — same bits, no search.
			searches := func() (n uint64) {
				for _, st := range tc.stores {
					n += st.Stats().Searches
				}
				return n
			}
			before := searches()
			for _, q := range queries {
				assertIdentical(t, fmt.Sprintf("repeat n=%d q=%q", n, q), r.Ask(q, 10).Items, mono.SearchText(q, 10))
			}
			if after := searches(); after != before {
				t.Fatalf("repeated asks re-executed %d shard searches", after-before)
			}
			if got := reg.Histogram("shard.scatter.ask").Count(); got != uint64(2*len(queries)) {
				t.Fatalf("ask histogram count = %d, want %d", got, 2*len(queries))
			}
			if n > 1 && reg.Counter("shard.scatter.pruned").Value() == 0 {
				t.Fatal("topical queries over multiple shards should prune at least once")
			}
			if reg.Counter("shard.scatter.partial").Value() != 0 {
				t.Fatal("partial counter moved on a healthy cluster")
			}
		})
	}
}

// TestScatterPrunesTopicalAsks: on a topical ask mix, statistics-driven
// planning keeps most of an 8-shard cluster out of each ask, under sustained
// ingest too. Over 8 192 Zipfian documents the router first asks every
// distinct query once, as a steady-state router would have, then asks them
// again while routed 64-document batches land every fourth ask; the mean
// number of shards pruned without a round trip must exceed half of them.
func TestScatterPrunesTopicalAsks(t *testing.T) {
	const seed, nAsks, k, n = 26, 32, 10, 8
	const ingestEvery, ingestBatch = 4, 64
	g := workload.NewGenerator(seed, 16, 16)
	var docs []*docstore.Document
	for _, d := range g.GenCorpus(8192, 1.1, int64(time.Hour)) {
		docs = append(docs, d.Doc)
	}
	// Churn: further generator output under fresh IDs.
	var churn []*docstore.Document
	for i, d := range g.GenCorpus(nAsks/ingestEvery*ingestBatch, 1.1, 0) {
		d.Doc.ID = fmt.Sprintf("churn%05d", i)
		churn = append(churn, d.Doc)
	}
	users := g.GenUsers(64)
	queries := make([]string, nAsks)
	for i := range queries {
		queries[i], _, _ = g.QueryFor(users[i%len(users)])
	}
	tc := startCluster(t, n, docs)
	r := tc.router(t, Options{Telemetry: telemetry.NewRegistry()})
	ask := func(q string) Result {
		t.Helper()
		res := r.Ask(q, k)
		if res.Partial {
			t.Fatalf("q=%q: partial on a healthy cluster: %v", q, res.Errors)
		}
		return res
	}
	for _, q := range queries {
		ask(q)
	}
	fanout, pruned, next := 0, 0, 0
	for i := 0; i < nAsks; i++ {
		if i%ingestEvery == ingestEvery-1 && next < len(churn) {
			parts := make(map[string][]*docstore.Document)
			for _, d := range churn[next:min(next+ingestBatch, len(churn))] {
				id := tc.m.Locate(DocKey(d)).ID
				parts[id] = append(parts[id], d)
			}
			for id, p := range parts {
				if err := tc.stores[id].PutBatch(p); err != nil {
					t.Fatal(err)
				}
			}
			next += ingestBatch
		}
		res := ask(queries[i%len(queries)])
		fanout += res.Fanout
		pruned += res.Pruned
	}
	avgFan, avgPruned := float64(fanout)/nAsks, float64(pruned)/nAsks
	if avgFan+avgPruned != n {
		t.Fatalf("fanout %v + pruned %v != %d shards", avgFan, avgPruned, n)
	}
	if avgPruned <= 4 {
		t.Fatalf("pruning barely engaged at %d shards: %v pruned, %v asked per ask", n, avgPruned, avgFan)
	}
	t.Logf("%v of %d shards pruned per ask", avgPruned, n)
}

// TestFirstContactIsOneCorrection: a fresh router holds no figure of any
// shard, and learns them from its first query to each — there is no other
// request. Every shard is asked at once, assumed to hold nothing; a shard
// that holds a query term corrects that (one drift reply) and is asked again
// under the sums it taught, a shard that holds none is pruned after its one
// reply. A second query over new terms finds every document count held: a
// shard without those terms confirms what was assumed of it in one frame,
// served as an answer that stands. Repeating an ask costs no correction. k
// exceeds the corpus, so no shard is ruled out by θ and every count is exact.
func TestFirstContactIsOneCorrection(t *testing.T) {
	docs, g := testCorpus(t, 600)
	mono := memShard(t)
	if err := mono.PutBatch(docs); err != nil {
		t.Fatalf("seed mono: %v", err)
	}
	const k = 1000
	first := g.Topics[0].Vocab[0] + " " + g.Topics[0].Vocab[1]
	second := g.Topics[1].Vocab[0] + " " + g.Topics[1].Vocab[1]
	for _, n := range []int{4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			tc := startCluster(t, n, docs)
			reg := telemetry.NewRegistry()
			r := tc.router(t, Options{Telemetry: reg})
			restarts, drift := reg.Counter("shard.scatter.restarts"), reg.Counter("shard.scatter.epoch.drift")
			// ask runs q and checks the answer and what each shard sent:
			// frames, and of them answers served rather than drift replies —
			// holder for a shard holding a query term, idle for the others.
			type sent struct{ frames, served uint64 }
			ask := func(label, q string, holder, idle sent, wantRestarts uint64) {
				t.Helper()
				terms, _ := canonicalTerms(q)
				before := map[string]sent{}
				for id, srv := range tc.servers {
					before[id] = sent{srv.WireStats().Frames, srv.Served()}
				}
				restarted := restarts.Value()
				res := r.Ask(q, k)
				if res.Partial || len(res.Errors) > 0 {
					t.Fatalf("%s: partial=%v errors=%v", label, res.Partial, res.Errors)
				}
				assertIdentical(t, label, res.Items, mono.SearchText(q, k))
				if got := restarts.Value() - restarted; got != wantRestarts {
					t.Fatalf("%s: %d restarts, want %d", label, got, wantRestarts)
				}
				holders := 0
				for id, srv := range tc.servers {
					_, _, stats := tc.stores[id].TermStats(terms)
					want := idle
					if slices.ContainsFunc(stats, func(st docstore.TermStat) bool { return st.DF > 0 }) {
						want = holder
						holders++
					}
					if got := (sent{srv.WireStats().Frames - before[id].frames, srv.Served() - before[id].served}); got != want {
						t.Fatalf("%s: %s sent %+v, want %+v", label, id, got, want)
					}
				}
				if holders == 0 || holders == n {
					t.Fatalf("%s: %d of %d shards hold a query term; the test needs both kinds", label, holders, n)
				}
			}
			ask("cold", first, sent{2, 1}, sent{1, 0}, 1)
			ask("warm", first, sent{1, 1}, sent{0, 0}, 0)
			ask("new terms, counts held", second, sent{2, 1}, sent{1, 1}, 1)
			ask("new terms, warm", second, sent{1, 1}, sent{0, 0}, 0)
			if got := drift.Value(); got != 0 {
				t.Fatalf("%d drift replies counted: learning figures is not drift", got)
			}
		})
	}
}

// TestScatterStatsTrackWrites pins the drift path: after writes land on a
// shard, the very next ask is corrected by that shard inside its one query
// exchange — one drift reply, one restart — and is bit-identical to a
// monolithic store receiving the same writes.
func TestScatterStatsTrackWrites(t *testing.T) {
	docs, g := testCorpus(t, 300)
	mono := memShard(t)
	if err := mono.PutBatch(docs); err != nil {
		t.Fatalf("seed mono: %v", err)
	}
	tc := startCluster(t, 4, docs)
	reg := telemetry.NewRegistry()
	r := tc.router(t, Options{Telemetry: reg})
	q := g.Topics[0].Vocab[0] + " " + g.Common[0]
	assertIdentical(t, "pre-write", r.Ask(q, 10).Items, mono.SearchText(q, 10))
	restarted := reg.Counter("shard.scatter.restarts").Value() // the cold ask's

	// New documents for topic 0: they land on exactly one shard; the figures
	// held of that shard are now stale.
	extra := make([]*docstore.Document, 0, 20)
	for i := 0; i < 20; i++ {
		extra = append(extra, &docstore.Document{
			ID:     fmt.Sprintf("extra%03d", i),
			Text:   g.Topics[0].Vocab[0] + " " + g.Topics[0].Vocab[1],
			Topics: []string{g.Topics[0].Name},
		})
	}
	targetID := tc.m.Locate(Key(g.Topics[0].Name)).ID
	target := tc.stores[targetID]
	if err := target.PutBatch(extra); err != nil {
		t.Fatalf("put extra: %v", err)
	}
	if err := mono.PutBatch(extra); err != nil {
		t.Fatalf("put extra mono: %v", err)
	}
	res := r.Ask(q, 10)
	assertIdentical(t, "post-write", res.Items, mono.SearchText(q, 10))
	if res.Partial || res.Epochs[targetID] != target.Epoch() || res.Fanout != len(res.Epochs) {
		t.Fatalf("partial=%v fanout=%d epochs=%v, want %s answering at epoch %d", res.Partial, res.Fanout, res.Epochs, targetID, target.Epoch())
	}
	drift, restarts := reg.Counter("shard.scatter.epoch.drift").Value(), reg.Counter("shard.scatter.restarts").Value()-restarted
	if drift != 1 || restarts != 1 {
		t.Fatalf("%d drift replies, %d restarts since the write; want 1, 1", drift, restarts)
	}
	// A write that moves no figure — the same document again — is a new epoch
	// and nothing else: the ask is confirmed where it was asked.
	if err := target.Put(extra[0]); err != nil {
		t.Fatal(err)
	}
	res = r.Ask(q, 10)
	assertIdentical(t, "new epoch, same figures", res.Items, mono.SearchText(q, 10))
	if res.Epochs[targetID] != target.Epoch() {
		t.Fatalf("answered at epoch %d, store at %d", res.Epochs[targetID], target.Epoch())
	}
	if reg.Counter("shard.scatter.epoch.drift").Value() != drift || reg.Counter("shard.scatter.restarts").Value() != restarted+restarts {
		t.Fatal("an epoch that changed no figure cost a drift reply or a restart")
	}
}

// TestScatterExactUnderConcurrentWrites: one writer keeps adding documents to
// the shard the queries are dominated by — always asked, first — while asks
// run; the other shards are quiescent. Every answer names the epoch that
// shard confirmed the ask's figures on and searched, and must equal, bit for
// bit, the exhaustive ranking of a single store holding the cluster's
// documents as of that epoch: the statistics and the search of one ask can
// no longer straddle a write.
func TestScatterExactUnderConcurrentWrites(t *testing.T) {
	docs, g := testCorpus(t, 300)
	tc := startCluster(t, 4, docs)
	r := tc.router(t, Options{Telemetry: telemetry.NewRegistry()})
	vocab := g.Topics[0].Vocab
	targetID := tc.m.Locate(Key(g.Topics[0].Name)).ID
	target := tc.stores[targetID]
	queries := []string{vocab[0] + " " + vocab[1], vocab[0] + " " + g.Common[0], vocab[2] + " " + vocab[0] + " " + g.Common[1]}

	const batches, perBatch = 40, 3
	extra := make([]*docstore.Document, 0, batches*perBatch)
	for i := 0; i < cap(extra); i++ {
		extra = append(extra, &docstore.Document{
			ID:     fmt.Sprintf("extra%03d", i),
			Text:   strings.Repeat(vocab[i%3]+" ", 1+i%4) + vocab[(i+1)%3] + " " + g.Common[i%2],
			Topics: []string{g.Topics[0].Name},
		})
	}
	written := map[uint64]int{target.Epoch(): 0} // the shard's epoch -> how many of extra it holds
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := perBatch; n <= len(extra); n += perBatch {
			if err := target.PutBatch(extra[n-perBatch : n]); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			written[target.Epoch()] = n // the only writer: one batch, one epoch
			time.Sleep(200 * time.Microsecond)
		}
	}()
	type answer struct {
		q   string
		res Result
	}
	var answers []answer
	for writing := true; writing; {
		select {
		case <-done:
			writing = false // and one more round, at the final epoch
		default:
		}
		for _, q := range queries {
			answers = append(answers, answer{q, r.Ask(q, 10)})
		}
	}

	monos := map[int]*docstore.Store{}
	exact, epochs := 0, map[uint64]bool{}
	for _, a := range answers {
		if errors.Is(a.res.Errors[targetID], ErrDrift) && len(a.res.Errors) == 1 {
			continue // outrun maxDrift times in one ask: reported, not wrong
		}
		epoch, asked := a.res.Epochs[targetID]
		n, known := written[epoch]
		if a.res.Partial || !asked || !known {
			t.Fatalf("q=%q: partial=%v errors=%v epochs=%v, want %s at an epoch the writer published", a.q, a.res.Partial, a.res.Errors, a.res.Epochs, targetID)
		}
		if monos[n] == nil {
			monos[n] = memShard(t)
			if err := monos[n].PutBatch(append(docs[:len(docs):len(docs)], extra[:n]...)); err != nil {
				t.Fatal(err)
			}
		}
		assertIdentical(t, fmt.Sprintf("q=%q at epoch %d (%d written)", a.q, epoch, n), a.res.Items, monos[n].SearchTextExhaustive(a.q, 10))
		exact++
		epochs[epoch] = true
	}
	if exact < len(answers)/2 || len(epochs) < 3 {
		t.Fatalf("%d of %d asks answered, at %d distinct epochs: the writer and the asks did not overlap", exact, len(answers), len(epochs))
	}
	t.Logf("%d asks, %d exact at %d distinct epochs of %d published", len(answers), exact, len(epochs), len(written))
}

// TestScatterPartialOnShardDeath kills one shard between asks: the router
// must answer from the survivors, flag the result partial, and attribute
// the failure to the dead shard (satellite 3).
func TestScatterPartialOnShardDeath(t *testing.T) {
	docs, g := testCorpus(t, 400)
	tc := startCluster(t, 4, docs)
	r := tc.router(t, Options{Timeout: 2 * time.Second, Telemetry: telemetry.NewRegistry()})
	q := g.Common[0] + " " + g.Common[1] + " " + g.Common[2] // touches every shard
	full := r.Ask(q, 10)
	if full.Partial || len(full.Items) == 0 {
		t.Fatalf("warm ask: partial=%v items=%d", full.Partial, len(full.Items))
	}

	// Kill the shard that contributed the top hit, so its absence is
	// observable in the merged list.
	var dead string
	for _, mem := range tc.m.Members() {
		if mem.Contains(DocKey(&docstore.Document{ID: full.Items[0].DocID, Topics: topicsOf(docs, full.Items[0].DocID)})) {
			dead = mem.ID
		}
	}
	if dead == "" {
		t.Fatal("could not locate top hit's shard")
	}
	tc.servers[dead].Close()

	res := r.Ask(q, 10)
	if !res.Partial {
		t.Fatal("ask after shard death not marked partial")
	}
	if err := res.Errors[dead]; err == nil {
		t.Fatalf("dead shard %s not attributed; errors=%v", dead, res.Errors)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("errors beyond the dead shard: %v", res.Errors)
	}
	// The survivors answered under the same global statistics, so the
	// full answer filtered to live shards must be a prefix of the partial
	// answer — same docs, same scores, same order.
	deadMem := tc.m.Locate(tc.memberRange(t, dead))
	var wantPrefix []wire.ResultItem
	for _, it := range full.Items {
		if !deadMem.Contains(DocKey(&docstore.Document{ID: it.DocID, Topics: topicsOf(docs, it.DocID)})) {
			wantPrefix = append(wantPrefix, it)
		}
	}
	if len(res.Items) < len(wantPrefix) {
		t.Fatalf("partial items %d < surviving full items %d", len(res.Items), len(wantPrefix))
	}
	for i, want := range wantPrefix {
		if res.Items[i].DocID != want.DocID || res.Items[i].Score != want.Score {
			t.Fatalf("pos %d = (%s, %v), want surviving (%s, %v)",
				i, res.Items[i].DocID, res.Items[i].Score, want.DocID, want.Score)
		}
	}
	for _, it := range res.Items {
		if deadMem.Contains(DocKey(&docstore.Document{ID: it.DocID, Topics: topicsOf(docs, it.DocID)})) {
			t.Fatalf("dead shard's document %s in partial result", it.DocID)
		}
	}
}

func topicsOf(docs []*docstore.Document, id string) []string {
	for _, d := range docs {
		if d.ID == id {
			return d.Topics
		}
	}
	return nil
}

// TestRouterChurn races concurrent asks against live writes and a
// mid-flight shard death; run under -race it pins the router's locking
// (satellite 3's churn stress).
func TestRouterChurn(t *testing.T) {
	docs, g := testCorpus(t, 300)
	tc := startCluster(t, 4, docs)
	r := tc.router(t, Options{Timeout: 2 * time.Second, Telemetry: telemetry.NewRegistry()})
	queries := testQueries(g)

	// Pre-generate churn documents: the workload generator's rng is not
	// goroutine-safe.
	churn := make([]*docstore.Document, 60)
	for i := range churn {
		tp := g.Topics[i%len(g.Topics)]
		churn[i] = &docstore.Document{
			ID:     fmt.Sprintf("churn%03d", i),
			Text:   tp.Vocab[i%len(tp.Vocab)] + " " + g.Common[i%len(g.Common)],
			Topics: []string{tp.Name},
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := queries[(w+i)%len(queries)]
				res := r.Ask(q, 10)
				for j := 1; j < len(res.Items); j++ {
					if itemBetter(res.Items[j], res.Items[j-1]) {
						t.Errorf("unordered merge under churn: %v", res.Items)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, d := range churn {
			st := tc.stores[tc.m.Locate(DocKey(d)).ID]
			if err := st.Put(d); err != nil {
				t.Errorf("churn put: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		tc.servers["shard3"].Close() // mid-flight death: asks must degrade, not hang
	}()
	wg.Wait()
}

// TestHandoffRebalance grows a 2-shard cluster to 3: Map.Join emits the
// handoff, a Mover streams the moved range between stores, and afterwards
// every document sits in exactly the shard owning its key — with the
// scatter answer still bit-identical to the monolithic store.
func TestHandoffRebalance(t *testing.T) {
	docs, g := testCorpus(t, 400)
	mono := memShard(t)
	if err := mono.PutBatch(docs); err != nil {
		t.Fatalf("seed mono: %v", err)
	}
	tc := startCluster(t, 2, docs)
	hs := tc.m.Join("shard2")
	if len(hs) != 1 {
		t.Fatalf("join handoffs = %d", len(hs))
	}
	tc.stores["shard2"] = memShard(t)
	mv := &Mover{Stores: tc.stores}
	moved, err := mv.ApplyAll(hs)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if moved == 0 {
		t.Fatal("handoff moved nothing; corpus should straddle the split")
	}

	// Placement invariant: every store holds exactly its range, and no
	// document was lost or duplicated.
	total := 0
	for _, mem := range tc.m.Members() {
		tc.stores[mem.ID].All(func(d *docstore.Document) bool {
			total++
			if k := DocKey(d); !mem.Contains(k) {
				t.Errorf("doc %s (key %d) on %s [%d,%d]", d.ID, k, mem.ID, mem.Start, mem.End)
				return false
			}
			return true
		})
	}
	if total != len(docs) {
		t.Fatalf("%d docs after rebalance, want %d", total, len(docs))
	}

	tc.serve(t, "shard2")
	r := tc.router(t, Options{Telemetry: telemetry.NewRegistry()})
	for _, q := range testQueries(g)[:6] {
		res := r.Ask(q, 10)
		if res.Partial {
			t.Fatalf("q=%q partial after rebalance: %v", q, res.Errors)
		}
		assertIdentical(t, "post-rebalance "+q, res.Items, mono.SearchText(q, 10))
	}
}

// TestAskAllocCeiling holds a warm ask that prunes to one shard — statistics
// cached, one query on the wire, the other three shards ruled out by bounds —
// to an allocation count, shard server's share included (it runs in this
// process). The ask stages its calls and waits on its own goroutine; a `go`
// statement back on that path costs a closure and its captured variables
// per ask and fails this without a stopwatch: the change that removed the
// router's goroutines reads 21 here, its parent 26.
func TestAskAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	docs, g := testCorpus(t, 600)
	tc := startCluster(t, 4, docs)
	r := tc.router(t, Options{})
	q := g.Topics[0].Vocab[0] + " " + g.Topics[0].Vocab[1]
	if res := r.Ask(q, 10); res.Partial || res.Fanout != 1 || res.Pruned != 3 {
		t.Fatalf("warm-up ask: partial=%v fanout=%d pruned=%d, want one shard asked of four", res.Partial, res.Fanout, res.Pruned)
	}
	got := testing.AllocsPerRun(200, func() {
		if res := r.Ask(q, 10); res.Fanout != 1 || len(res.Items) == 0 {
			t.Fatalf("fanout=%d items=%d", res.Fanout, len(res.Items))
		}
	})
	if got > 23 {
		t.Fatalf("%.1f allocations per ask, ceiling 23 (the count is process-wide: the in-process shard server and the client's read loop allocate their share of it, so look there as well as in the ask path)", got)
	}
	t.Logf("%.1f allocations per ask", got)
}
