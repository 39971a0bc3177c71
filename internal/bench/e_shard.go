package bench

import (
	"fmt"
	"net"
	"time"

	"repro/internal/docstore"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

// shardCluster is a fixed corpus served by n agora-node shard servers over
// real loopback TCP, partitioned by the shard map's document key.
type shardCluster struct {
	m       *shard.Map
	stores  map[string]*docstore.Store
	servers []*transport.Server
}

func startShardCluster(seed int64, n int, docs []*docstore.Document) *shardCluster {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("shard%d", i)
	}
	c := &shardCluster{m: shard.NewUniform(ids), stores: make(map[string]*docstore.Store, n)}
	for _, mem := range c.m.Members() {
		st, err := docstore.Open(docstore.Options{ConceptDim: 16, Seed: seed})
		if err != nil {
			panic(err)
		}
		c.stores[mem.ID] = st
	}
	c.ingest(docs)
	for _, mem := range c.m.Members() {
		srv := transport.NewServer(mem.ID, c.stores[mem.ID])
		srv.ShardStart, srv.ShardEnd = mem.Start, mem.End
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		go srv.Serve(ln)
		c.m.SetAddrs(mem.ID, ln.Addr().String())
		c.servers = append(c.servers, srv)
	}
	return c
}

// ingest routes a batch of documents to their owning shards through the
// ordinary write path (group commit, overlay, freeze on overlay overflow).
func (c *shardCluster) ingest(batch []*docstore.Document) {
	parts := make(map[string][]*docstore.Document)
	for _, d := range batch {
		id := c.m.Locate(shard.DocKey(d)).ID
		parts[id] = append(parts[id], d)
	}
	for id, p := range parts {
		if err := c.stores[id].PutBatch(p); err != nil {
			panic(err)
		}
	}
}

func (c *shardCluster) close() {
	for _, s := range c.servers {
		s.Close()
	}
	for _, s := range c.stores {
		s.Close()
	}
}

// E26ShardedScatter checks scatter-gather asks over a fixed Zipfian corpus
// as the shard count grows 1→8, every ask over real TCP, in the two regimes
// that matter:
//
// Quiescent reads. The merged top-k is checked bit-identical to a
// monolithic store holding the whole corpus at every shard count (the
// tentpole invariant, asserted by TestE26Shapes).
//
// Sustained ingest — the agora's operating point. The mixed phase
// interleaves asks with a fixed ingest schedule (identical batches at
// identical points for every shard count) and counts, per ask, the shards
// the router asked and the shards its statistics-driven planning pruned
// without a round trip; a healthy cluster never degrades an ask to partial.
func E26ShardedScatter(seed int64, scale float64) *Result {
	nDocs := scaleInt(65536, scale, 1024)
	nAsks := scaleInt(192, scale, 32)
	const k = 10
	const ingestEvery = 4  // one churn batch per this many mixed-phase asks
	const ingestBatch = 64 // documents per churn batch

	g := workload.NewGenerator(seed, 16, 16)
	corpus := g.GenCorpus(nDocs, 1.1, int64(time.Hour))
	docs := make([]*docstore.Document, len(corpus))
	for i, d := range corpus {
		docs[i] = d.Doc
	}
	// Churn pool: further generator output under fresh IDs (GenCorpus
	// restarts its numbering; these are new documents, not replacements).
	churnPool := g.GenCorpus(nAsks/ingestEvery*ingestBatch, 1.1, 0)
	churn := make([]*docstore.Document, len(churnPool))
	for i, d := range churnPool {
		churn[i] = d.Doc
		churn[i].ID = fmt.Sprintf("churn%05d", i)
	}

	mono, err := docstore.Open(docstore.Options{ConceptDim: 16, Seed: seed})
	if err != nil {
		panic(err)
	}
	defer mono.Close()
	if err := mono.PutBatch(docs); err != nil {
		panic(err)
	}

	users := g.GenUsers(64)
	queries := make([]string, nAsks)
	for i := range queries {
		queries[i], _, _ = g.QueryFor(users[i%len(users)])
	}

	table := metrics.NewTable("E26: sharded scatter-gather identity & pruning (fixed corpus, real TCP)",
		"shards", "asks checked", "asks under ingest", "fanout/ask", "pruned/ask")
	headline := map[string]float64{}
	identical, partials := true, 0

	for _, n := range []int{1, 2, 4, 8} {
		c := startShardCluster(seed, n, docs)
		r, err := shard.NewRouter(c.m, shard.Options{Telemetry: telemetry.NewRegistry()})
		if err != nil {
			panic(err)
		}

		// Phase 1 — identity over every distinct query (doubles as router
		// warm-up: per-shard term statistics are collected and cached here,
		// as a steady-state router's would be).
		for _, q := range queries {
			res := r.Ask(q, k)
			want := mono.SearchText(q, k)
			if res.Partial {
				partials++
			}
			if len(res.Items) != len(want) {
				identical = false
				continue
			}
			for i := range want {
				if res.Items[i].DocID != want[i].Doc.ID || res.Items[i].Score != want[i].Score {
					identical = false
					break
				}
			}
		}

		// Phase 2 — asks under sustained ingest. The schedule is fixed:
		// the same batches land at the same points at every shard count.
		fanout, pruned, next := 0, 0, 0
		for i := 0; i < nAsks; i++ {
			if i%ingestEvery == ingestEvery-1 && next < len(churn) {
				c.ingest(churn[next:min(next+ingestBatch, len(churn))])
				next += ingestBatch
			}
			res := r.Ask(queries[i%len(queries)], k)
			fanout += res.Fanout
			pruned += res.Pruned
			if res.Partial {
				partials++
			}
		}
		r.Close()
		c.close()

		avgFan := float64(fanout) / float64(nAsks)
		avgPruned := float64(pruned) / float64(nAsks)
		table.AddRow(n, len(queries), nAsks, avgFan, avgPruned)
		headline[fmt.Sprintf("fanout_%d", n)] = avgFan
		headline[fmt.Sprintf("pruned_%d", n)] = avgPruned
	}
	table.AddRow("identical to monolith", identical, "-", "-", "-")
	table.AddRow("partial asks", partials, "-", "-", "-")

	headline["identical"] = boolAsFloat(identical)
	headline["partial_asks"] = float64(partials)
	return &Result{ID: "E26", Table: table, Headline: headline}
}
