package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

const (
	numShards  = 4
	batchDocs  = 32 // documents per routed churn batch
	asksPerPut = 2  // asks after each batch: 16 documents written per ask
	rpcTimeout = 2 * time.Second
)

// scatter is scatter_read and scatter_ingest: a Zipf corpus on four durable
// shard servers behind real loopback TCP, asked through shard.Router. With
// ingest on, a fixed schedule interleaves routed 32-document batches from a
// churn pool whose IDs are fixed, so after the warm-up pass every batch
// replaces and the corpus size is stable.
type scatter struct {
	cfg    config
	ingest bool
	docs   int // corpus size
	churn  int // churn pool size; one ingest round is one pass over it
	asks   int // asks per read round

	loaded
	dir     string
	m       *shard.Map
	index   map[string]int // member id -> position in the slices below
	stores  []*docstore.Store
	regs    []*telemetry.Registry
	servers []*transport.Server
	serving sync.WaitGroup
	router  *shard.Router
	rreg    *telemetry.Registry
	next    int // churn cursor

	replay []*transport.Client // the harness's own connections, dialled for the traced pass
	// Codec replay keeps the last real messages for the allocation count.
	lastQuery  wire.Query
	lastResult wire.QueryResult
	encBuf     []byte
}

func newScatter(cfg config, ingest bool) *scatter {
	s := &scatter{cfg: cfg, ingest: ingest, docs: 32768, churn: 2048, asks: 1024}
	if cfg.quick {
		s.docs, s.churn, s.asks = 2048, 256, 128
	}
	return s
}

func (s *scatter) setup() error {
	s.in = newInputs(s.cfg.seed, s.docs, s.churn, 0, 128)
	dir, err := os.MkdirTemp(s.cfg.outDir, s.cfg.workload+"-*")
	if err != nil {
		return err
	}
	s.dir = dir
	ids := make([]string, numShards)
	for i := range ids {
		ids[i] = fmt.Sprintf("shard%d", i)
	}
	s.m = shard.NewUniform(ids)
	s.index = map[string]int{}
	for i, mem := range s.m.Members() {
		s.index[mem.ID] = i
	}
	parts := s.partition(docsOf(s.in.corpus))
	for i, mem := range s.m.Members() {
		// Configured as cmd/agora-node -dir -shard-range configures a node.
		reg := telemetry.NewRegistry()
		st, err := docstore.Open(docstore.Options{
			Dir: filepath.Join(dir, mem.ID), ConceptDim: conceptDim, Seed: s.cfg.seed,
			SyncEveryPut: true, CompactAfterBytes: 64 << 20, Telemetry: reg,
		})
		if err != nil {
			return err
		}
		s.stores = append(s.stores, st)
		s.regs = append(s.regs, reg)
		t0 := time.Now()
		if err := st.PutBatch(parts[i]); err != nil {
			return err
		}
		s.loadSeconds += time.Since(t0).Seconds()
		s.loadDocs += len(parts[i])

		srv := transport.NewServer(mem.ID, st)
		srv.Log = nil
		srv.SetTelemetry(reg)
		srv.ShardStart, srv.ShardEnd = mem.Start, mem.End
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.servers = append(s.servers, srv)
		s.m.SetAddrs(mem.ID, ln.Addr().String())
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			if err := srv.Serve(ln); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: serve:", err)
			}
		}()
	}
	s.rreg = telemetry.NewRegistry()
	s.router, err = shard.NewRouter(s.m, shard.Options{ClientID: "benchmark", Timeout: rpcTimeout, Telemetry: s.rreg})
	return err
}

// partition groups docs by owning shard, in member order.
func (s *scatter) partition(docs []*docstore.Document) [][]*docstore.Document {
	parts := make([][]*docstore.Document, numShards)
	for _, d := range docs {
		i := s.index[s.m.Locate(shard.DocKey(d)).ID]
		parts[i] = append(parts[i], d)
	}
	return parts
}

func (s *scatter) round(rec *recorder) error {
	if rec.tr != nil && s.replay == nil {
		if err := s.startReplay(); err != nil {
			return err
		}
	}
	if !s.ingest {
		for i := 0; i < s.asks; i++ {
			s.ask(rec)
		}
		return nil
	}
	for b := 0; b < s.churn/batchDocs; b++ {
		if err := s.write(rec); err != nil {
			return err
		}
		for i := 0; i < asksPerPut; i++ {
			s.ask(rec)
		}
	}
	return nil
}

// write routes one churn batch to its shards' stores, as a writer in front
// of the cluster would: the ack of the last PutBatch is the batch's ack.
func (s *scatter) write(rec *recorder) error {
	batch := s.in.churn[s.next : s.next+batchDocs]
	s.next = (s.next + batchDocs) % len(s.in.churn)
	root, opID := 0, 0
	t0 := time.Now()
	if rec.tr != nil {
		opID = rec.tr.nextAsk()
		root = rec.tr.add("harness.write", rootSpan, opID, t0, 0)
	}
	parts := s.partition(batch)
	located := time.Since(t0)
	if rec.tr != nil {
		rec.tr.add("shard.locate", root, opID, t0, located)
	}
	var err error
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		w0 := time.Now()
		d, werr := storeWrite(rec, s.stores[i], func() error { return s.stores[i].PutBatch(p) })
		if rec.tr != nil {
			rec.tr.add("docstore.putbatch", root, opID, w0, d)
		}
		if werr != nil {
			err = werr
		}
	}
	d := time.Since(t0)
	if rec.tr != nil {
		rec.tr.setEnd(root, d)
	}
	rec.observe("write", d)
	rec.observe("shard.locate", located/batchDocs)
	rec.counts["write.docs"] += batchDocs
	for _, doc := range batch {
		rec.counts["write.user_bytes"] += float64(userBytes(doc))
	}
	rec.op(err == nil)
	return err
}

func (s *scatter) ask(rec *recorder) {
	q := s.in.nextQuery()
	if rec.tr != nil {
		s.tracedAsk(rec, q)
		return
	}
	t0 := time.Now()
	res := s.router.Ask(q, topK)
	rec.ask(time.Since(t0), s.note(rec, res))
}

// note sums an answer's public counts and says whether it was complete.
func (s *scatter) note(rec *recorder, res shard.Result) bool {
	rec.counts["shard.fanout"] += float64(res.Fanout)
	rec.counts["shard.pruned"] += float64(res.Pruned)
	rec.counts["shard.hedges"] += float64(res.Hedges)
	if res.Partial {
		rec.counts["shard.partial"]++
	}
	return !res.Partial && len(res.Errors) == 0
}

// tracedAsk times one router ask, works out from the servers' public
// counters which shards it reached with which requests, and replays exactly
// those requests layer by layer.
func (s *scatter) tracedAsk(rec *recorder, q string) {
	tr := rec.tr
	served := make([]uint64, numShards)
	frames := make([]uint64, numShards)
	for i, srv := range s.servers {
		served[i], frames[i] = srv.Served(), srv.WireStats().Frames
	}
	t0 := time.Now()
	res := s.router.Ask(q, topK)
	d := time.Since(t0)
	rec.ask(d, s.note(rec, res))
	opID := tr.nextAsk()
	root := tr.add("shard.ask", rootSpan, opID, t0, d)

	// Corpus-wide statistics, as the router's cache holds them.
	terms := distinctTerms(q)
	var total uint64
	df := make([]uint64, len(terms))
	asked := make([]bool, numShards)
	for i, st := range s.stores {
		// Every server frame in the window answered a query or a stats
		// request: the frames that are not query results are stats replies.
		queries := s.servers[i].Served() - served[i]
		statsRPCs := s.servers[i].WireStats().Frames - frames[i] - queries
		parent := probeSpan
		if statsRPCs > 0 {
			parent = tr.timed("transport.termstats", root, opID, func() {
				_, err := s.replay[i].TermStats(terms, rpcTimeout)
				rec.op(err == nil)
			})
		}
		tr.timed("docstore.termstats", parent, opID, func() {
			n, _, stats := st.TermStats(terms)
			total += n
			for j := range stats {
				df[j] += stats[j].DF
			}
		})
		asked[i] = queries > 0
	}
	var lists [][]wire.ResultItem
	first := -1
	for i, st := range s.stores {
		if !asked[i] {
			continue
		}
		if first < 0 {
			first = i
		}
		var qr wire.QueryResult
		rtt := tr.timed("transport.query", root, opID, func() {
			var err error
			qr, err = s.replay[i].QueryGlobal(q, topK, rpcTimeout, telemetry.TraceContext{}, total, terms, df)
			rec.op(err == nil)
		})
		tr.timed("docstore.search_global", rtt, opID, func() {
			st.SearchTextGlobal(q, topK, &docstore.GlobalStats{TotalDocs: total, Terms: terms, DF: df})
		})
		s.lastQuery = wire.Query{ID: "q1", Text: q, TopK: topK, GlobalDocs: total, StatsTerms: terms, StatsDF: df}
		s.lastResult = qr
		s.replayCodec(tr, rtt, opID)
		rec.counts["wire.query_bytes"] += float64(len(s.lastQuery.AppendTo(s.encBuf[:0])))
		rec.counts["wire.result_bytes"] += float64(len(qr.AppendTo(s.encBuf[:0])))
		rec.counts["wire.frames"] += 2
		lists = append(lists, qr.Items)
	}
	// Probes: calls the ask may not have made, timed for their own metric.
	tr.timed("shard.merge", probeSpan, opID, func() { shard.MergeTopK(lists, topK) })
	if first >= 0 {
		tr.timed("transport.ping", probeSpan, opID, func() {
			_, err := s.replay[first].Ping(rpcTimeout)
			rec.op(err == nil)
		})
		tr.timed("transport.termstats_probe", probeSpan, opID, func() {
			_, err := s.replay[first].TermStats(terms, rpcTimeout)
			rec.op(err == nil)
		})
		tr.timed("docstore.search_local", probeSpan, opID, func() { s.stores[first].SearchText(q, topK) })
	}
}

// replayCodec encodes and decodes the ask's real request and reply, as the
// client and server did around the round-trip.
func (s *scatter) replayCodec(tr *tracer, parent, opID int) {
	const reps = 8 // one call is shorter than the clock's resolution
	tr.timedN("wire.query_encode", parent, opID, reps, func() { s.encBuf = s.lastQuery.AppendTo(s.encBuf[:0]) })
	enc := append([]byte(nil), s.encBuf...)
	tr.timedN("wire.query_decode", parent, opID, reps, func() { wire.UnmarshalQueryShared(enc) })
	tr.timedN("wire.result_encode", parent, opID, reps, func() { s.encBuf = s.lastResult.AppendTo(s.encBuf[:0]) })
	tr.timedN("wire.result_decode", parent, opID, reps, func() { wire.UnmarshalQueryResultShared(s.encBuf) })
}

// distinctTerms is the query's distinct tokens in first-appearance order:
// the canonical term list a router sends with its statistics.
func distinctTerms(q string) []string {
	var terms []string
	seen := map[string]bool{}
	for _, t := range feature.Tokenize(q) {
		if !seen[t] {
			seen[t] = true
			terms = append(terms, t)
		}
	}
	return terms
}

func (s *scatter) counters() map[string]float64 {
	m := map[string]float64{}
	for i, st := range s.stores {
		addSnapshot(m, s.regs[i].Snapshot())
		addStoreStats(m, st.Stats())
		ws := s.servers[i].WireStats()
		m["transport.served"] += float64(s.servers[i].Served())
		m["transport.frames"] += float64(ws.Frames)
		m["transport.flushes"] += float64(ws.Flushes)
	}
	addSnapshot(m, s.rreg.Snapshot())
	return m
}

func (s *scatter) layers(m map[string]float64, un *recorder, delta map[string]float64, tr *recorder) {
	asks := float64(len(un.asks))
	m["shard.fanout_per_ask"] = un.counts["shard.fanout"] / asks
	m["shard.pruned_per_ask"] = un.counts["shard.pruned"] / asks
	m["shard.hedges_per_ask"] = un.counts["shard.hedges"] / asks
	m["shard.partial_ratio"] = un.counts["shard.partial"] / asks
	m["shard.epoch_drift_per_ask"] = delta["shard.scatter.epoch.drift"] / asks
	m["shard.stats_rpcs_per_ask"] = (delta["transport.frames"] - delta["transport.served"]) / asks
	m["shard.locate_ns"] = float64(percentile(un.series["shard.locate"], 50))
	m["transport.frames_per_flush"] = ratio(delta["transport.frames"], delta["transport.flushes"])
	m["transport.served_per_ask"] = delta["transport.served"] / asks
	m["docstore.putbatch_ms"] = ms(percentile(un.series["docstore.write"], 50))
	docstoreLayers(m, un, delta)
	if tr.tr == nil {
		return
	}
	dur, self := tr.tr.durations()
	med := func(d map[string][]time.Duration, name string) time.Duration { return percentile(d[name], 50) }
	m["shard.ask_self_us"] = us(med(self, "shard.ask"))
	m["shard.merge_us"] = us(med(dur, "shard.merge"))
	m["transport.query_rtt_us"] = us(med(dur, "transport.query"))
	m["transport.self_us"] = us(med(self, "transport.query"))
	m["transport.termstats_rtt_us"] = us(med(dur, "transport.termstats_probe"))
	m["transport.ping_rtt_us"] = us(med(dur, "transport.ping"))
	m["wire.query_encode_ns"] = float64(med(dur, "wire.query_encode"))
	m["wire.query_decode_ns"] = float64(med(dur, "wire.query_decode"))
	m["wire.result_encode_ns"] = float64(med(dur, "wire.result_encode"))
	m["wire.result_decode_ns"] = float64(med(dur, "wire.result_decode"))
	m["wire.query_bytes"] = ratio(tr.counts["wire.query_bytes"], tr.counts["wire.frames"]/2)
	m["wire.result_bytes"] = ratio(tr.counts["wire.result_bytes"], tr.counts["wire.frames"]/2)
	m["wire.allocs_per_frame"] = s.codecAllocs()
	m["docstore.search_global_us"] = us(med(dur, "docstore.search_global"))
	m["docstore.search_local_us"] = us(med(dur, "docstore.search_local"))
	m["docstore.termstats_us"] = us(med(dur, "docstore.termstats"))
}

// codecAllocs counts heap allocations per frame over the four codec calls
// on the last ask's real messages.
func (s *scatter) codecAllocs() float64 {
	const reps = 256
	enc := s.lastQuery.AppendTo(nil)
	res := s.lastResult.AppendTo(nil)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		s.encBuf = s.lastQuery.AppendTo(s.encBuf[:0])
		wire.UnmarshalQueryShared(enc)
		s.encBuf = s.lastResult.AppendTo(s.encBuf[:0])
		wire.UnmarshalQueryResultShared(res)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / (4 * reps)
}

// verify rebuilds a monolithic reference from what the shards hold now and
// requires every pool query's routed answer to match the reference's
// exhaustive ranking bit for bit: same documents, same order, same score bits.
func (s *scatter) verify(m map[string]float64) (checked, wrong int, err error) {
	var all []*docstore.Document
	var live int64
	for _, st := range s.stores {
		st.All(func(d *docstore.Document) bool {
			all = append(all, d)
			live += userBytes(d)
			return true
		})
	}
	disk, err := dirBytes(s.dir)
	if err != nil {
		return 0, 0, err
	}
	m["disk_bytes_per_user_byte"] = ratio(float64(disk), float64(live))
	// Loaded through a durable store: an in-memory one pays a freeze per
	// overlay's worth of documents, an order of magnitude slower in bulk.
	mono, err := docstore.Open(docstore.Options{Dir: filepath.Join(s.dir, "mono"), ConceptDim: conceptDim, Seed: s.cfg.seed})
	if err != nil {
		return 0, 0, err
	}
	defer mono.Close()
	if err := mono.PutBatch(all); err != nil {
		return 0, 0, err
	}
	for _, q := range s.in.pool {
		res := s.router.Ask(q, topK)
		want := mono.SearchTextExhaustive(q, topK)
		checked++
		same := !res.Partial && len(res.Items) == len(want)
		for i := 0; same && i < len(want); i++ {
			same = res.Items[i].DocID == want[i].Doc.ID && res.Items[i].Score == want[i].Score
		}
		if !same {
			wrong++
		}
	}
	return checked, wrong, nil
}

// startReplay dials the harness's own connection to every shard.
func (s *scatter) startReplay() error {
	for _, mem := range s.m.Members() {
		c, err := transport.Dial(mem.Addrs[0], "benchmark-replay", rpcTimeout)
		if err != nil {
			return err
		}
		s.replay = append(s.replay, c)
	}
	return nil
}

func (s *scatter) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range s.replay {
		keep(c.Close())
	}
	if s.router != nil {
		keep(s.router.Close())
	}
	for _, srv := range s.servers {
		keep(srv.Close())
	}
	s.serving.Wait()
	for _, st := range s.stores {
		keep(st.Close())
	}
	if s.dir != "" {
		keep(os.RemoveAll(s.dir))
	}
	return first
}
