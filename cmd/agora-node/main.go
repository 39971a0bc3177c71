// Command agora-node serves one Open Agora information source over real
// TCP: a durable document store answering wire-protocol queries. Pair with
// cmd/agora-query.
//
// Usage:
//
//	agora-node -listen :7411 -id museum -dir /var/lib/agora-museum [-demo]
//
// With -demo the node seeds itself with a generated corpus so the pair can
// be tried immediately.
//
// With -shard-range the node serves one partition of a sharded corpus:
// the range ("3/8" for the fourth of eight uniform ranges, or an explicit
// "start-end" key interval) is announced in the handshake so routers can
// verify placement, and -demo seeding keeps only the documents whose
// shard key falls inside it. Start n nodes with ranges 0/n … n-1/n and
// point agora-query -scatter at all of them:
//
//	agora-node -listen :7411 -id museum-0 -demo -shard-range 0/2
//	agora-node -listen :7412 -id museum-1 -demo -shard-range 1/2
//
// Observability: -debug-addr starts an introspection HTTP listener with
// /debug/vars (expvar, including the live telemetry snapshot),
// /debug/pprof/* (CPU/heap profiling), /debug/telemetry (JSON counters,
// latency histograms with p50/p95/p99, and tail-sampled query traces),
// /debug/trace?id=<trace id> (the stitched span tree for one distributed
// trace — the id agora-query prints), and /metrics (Prometheus text
// exposition with trace-ID exemplars on latency buckets).
// -log-level picks the verbosity threshold (debug|info|warn|error|off).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/docstore"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	listen := flag.String("listen", ":7411", "TCP listen address")
	id := flag.String("id", "agora-node", "node id announced to clients")
	dir := flag.String("dir", "", "durability directory (empty = in-memory)")
	demo := flag.Bool("demo", false, "seed with a generated demo corpus")
	demoDocs := flag.Int("demo-docs", 500, "demo corpus size")
	seed := flag.Int64("seed", 11, "demo corpus seed")
	debugAddr := flag.String("debug-addr", "", "HTTP introspection address (/debug/vars, /debug/pprof/*, /debug/telemetry); empty disables")
	logLevel := flag.String("log-level", "info", "log threshold: debug|info|warn|error|off")
	shardRange := flag.String("shard-range", "", `shard key range this node owns ("i/n" or "start-end"); empty = unsharded`)
	flag.Parse()

	var member shard.Member
	sharded := *shardRange != ""
	if sharded {
		start, end, err := shard.ParseRange(*shardRange)
		if err != nil {
			fmt.Fprintln(os.Stderr, "agora-node:", err)
			os.Exit(2)
		}
		member = shard.Member{Start: start, End: end}
	}

	lvl, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "agora-node:", err)
		os.Exit(2)
	}
	logger := telemetry.NewLogger(os.Stderr, lvl)
	reg := telemetry.NewRegistry()

	store, err := docstore.Open(docstore.Options{
		Dir: *dir, SyncEveryPut: *dir != "",
		CompactAfterBytes: 64 << 20, Telemetry: reg,
	})
	if err != nil {
		logger.Errorf("agora-node: %v", err)
		os.Exit(1)
	}
	defer store.Close()

	if *demo && store.Len() == 0 {
		g := workload.NewGenerator(*seed, 32, 8)
		corpus := g.GenCorpus(*demoDocs, 1.2, int64(24*time.Hour))
		// One batch, one commit window: the whole corpus rides a single
		// fsync instead of one disk round trip per document. A sharded
		// node keeps only its partition of the (deterministic) corpus, so
		// n demo nodes seeded with the same -seed and ranges 0/n … n-1/n
		// together hold exactly one copy of the whole demo corpus.
		batch := make([]*docstore.Document, 0, len(corpus))
		for _, d := range corpus {
			if sharded && !member.Contains(shard.DocKey(d.Doc)) {
				continue
			}
			d.Doc.Provenance = *id
			batch = append(batch, d.Doc)
		}
		if err := store.PutBatch(batch); err != nil {
			logger.Errorf("agora-node: seeding: %v", err)
			os.Exit(1)
		}
		logger.Infof("agora-node: seeded %d demo documents", store.Len())
	}

	srv := transport.NewServer(*id, store)
	srv.Log = logger
	srv.SetTelemetry(reg)
	if sharded {
		srv.ShardStart, srv.ShardEnd = member.Start, member.End
		logger.Infof("agora-node: serving shard range [%d, %d]", member.Start, member.End)
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Errorf("agora-node: debug listener: %v", err)
			os.Exit(1)
		}
		telemetry.PublishExpvar("telemetry", reg)
		go func() {
			if herr := http.Serve(dln, telemetry.DebugMux(reg)); herr != nil {
				logger.Warnf("agora-node: debug server: %v", herr)
			}
		}()
		logger.Infof("agora-node: debug endpoints on http://%s/debug/{vars,pprof,telemetry,trace} and /metrics", dln.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Errorf("agora-node: %v", err)
		os.Exit(1)
	}
	logger.Infof("agora-node: %q serving %d documents on %s", *id, store.Len(), ln.Addr())

	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt)
	go func() {
		<-done
		fmt.Println()
		logger.Infof("agora-node: shutting down (served %d queries)", srv.Served())
		srv.Close()
	}()
	if err := srv.Serve(ln); err != nil {
		logger.Errorf("agora-node: %v", err)
		os.Exit(1)
	}
}
