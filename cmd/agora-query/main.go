// Command agora-query is the consumer CLI for TCP agora nodes: it fans a
// query (free text or full AQL) out to one or more nodes, merges the
// ranked answers, and prints them.
//
// With -scatter the listed nodes are treated as the uniform shard
// partition of ONE corpus, in list order (node i owns range i/n — how
// agora-node -shard-range i/n carves it), and the query runs through the
// shard router instead of the per-source merge: global statistics are
// collected first, shards that cannot contribute to the top-k are pruned,
// and the merged ranking is bit-identical to an unsharded node holding
// the whole corpus.
//
// Usage:
//
//	agora-query -nodes 127.0.0.1:7411,127.0.0.1:7412 "byzantine gold ring"
//	agora-query -nodes 127.0.0.1:7411 -top 5 'FIND documents WHERE text ~ "ring" TOP 5'
//	agora-query -nodes 127.0.0.1:7411,127.0.0.1:7412 -scatter "byzantine gold ring"
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	nodes := flag.String("nodes", "127.0.0.1:7411", "comma-separated node addresses")
	top := flag.Int("top", 10, "results to print after merging")
	timeout := flag.Duration("timeout", 5*time.Second, "per-node timeout")
	scatter := flag.Bool("scatter", false, "treat the nodes as one sharded corpus (list order = shard order) and route through the scatter-gather router")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: agora-query [-nodes a,b] [-scatter] <query>")
		os.Exit(2)
	}
	text := flag.Arg(0)

	if *scatter {
		scatterAsk(strings.Split(*nodes, ","), text, *top, *timeout)
		return
	}

	var clients []*transport.Client
	for _, addr := range strings.Split(*nodes, ",") {
		c, err := transport.Dial(strings.TrimSpace(addr), "agora-query", *timeout)
		if err != nil {
			log.Printf("agora-query: %v (skipping)", err)
			continue
		}
		defer c.Close()
		clients = append(clients, c)
	}
	if len(clients) == 0 {
		log.Fatal("agora-query: no nodes reachable")
	}

	// One trace covers the whole fan-out; each node sees its own span
	// context on the wire, so the server side continues this trace and
	// /debug/trace?id=<trace id> on any node shows its slice of the ask.
	reg := telemetry.NewRegistry()
	tr := reg.StartTrace("agora-query", text)

	// Stage every node's query, then wait for each in turn: N nodes cost
	// the slowest round trip, not the sum.
	type asked struct {
		c    *transport.Client
		sp   *telemetry.Span
		call transport.Call
	}
	var calls []asked
	for _, c := range clients {
		sp := tr.Span("query", c.RemoteID)
		calls = append(calls, asked{c, sp, c.StartQueryTraced(text, nil, *top, *timeout, sp.Context())})
	}
	type hit struct {
		item wire.ResultItem
	}
	var all []hit
	for _, a := range calls {
		res, err := a.call.Wait()
		if err != nil {
			a.sp.Fail(err)
			log.Printf("agora-query: %s: %v", a.c.RemoteID, err)
			continue
		}
		a.sp.End()
		// Normalize per-source scores before merging.
		var max float64
		for _, it := range res.Items {
			if it.Score > max {
				max = it.Score
			}
		}
		for _, it := range res.Items {
			if max > 0 {
				it.Score /= max
			}
			all = append(all, hit{item: it})
		}
		log.Printf("agora-query: %s answered %d items in %.1fms",
			res.From, len(res.Items), res.Elapsed*1000)
	}
	tr.Finish()
	log.Printf("agora-query: trace %s — inspect via /debug/trace?id=%s on any node's debug listener",
		tr.ID(), tr.ID())
	sort.Slice(all, func(i, j int) bool {
		if all[i].item.Score != all[j].item.Score {
			return all[i].item.Score > all[j].item.Score
		}
		return all[i].item.DocID < all[j].item.DocID
	})
	seen := map[string]bool{}
	rank := 0
	for _, h := range all {
		if seen[h.item.DocID] {
			continue
		}
		seen[h.item.DocID] = true
		rank++
		if rank > *top {
			break
		}
		fmt.Printf("%2d. [%.3f] %-14s %s  — %s\n", rank, h.item.Score, h.item.Source, h.item.DocID, h.item.Snippet)
	}
	if rank == 0 {
		fmt.Println("no results")
	}
}

// scatterAsk routes one query through the shard router: the node list, in
// order, is taken as the uniform partition agora-node -shard-range i/n
// serves. The router collects global term statistics, prunes shards whose
// score bound cannot reach the top-k, scatters to the rest, and merges —
// printing the same ranking an unsharded node with the whole corpus would,
// and the epoch each asked shard confirmed those statistics on and searched.
func scatterAsk(addrs []string, text string, top int, timeout time.Duration) {
	ids := make([]string, 0, len(addrs))
	for _, a := range addrs {
		ids = append(ids, strings.TrimSpace(a))
	}
	m := shard.NewUniform(ids)
	for _, id := range ids {
		m.SetAddrs(id, id)
	}
	reg := telemetry.NewRegistry()
	r, err := shard.NewRouter(m, shard.Options{ClientID: "agora-query", Timeout: timeout, Telemetry: reg})
	if err != nil {
		log.Fatalf("agora-query: %v", err)
	}
	defer r.Close()

	start := time.Now()
	res := r.Ask(text, top)
	elapsed := time.Since(start)
	for id, serr := range res.Errors {
		log.Printf("agora-query: shard %s: %v", id, serr)
	}
	status := "complete"
	if res.Partial {
		status = "PARTIAL (missing shards above)"
	}
	log.Printf("agora-query: scatter over %d shard(s): asked %d, pruned %d, hedged %d — %s in %.1fms",
		m.Len(), res.Fanout, res.Pruned, res.Hedges, status, elapsed.Seconds()*1000)
	for _, id := range ids { // the state the answer was computed from
		if epoch, asked := res.Epochs[id]; asked {
			log.Printf("agora-query: shard %s answered from epoch %d", id, epoch)
		}
	}
	tid := telemetry.TraceID(res.TraceID)
	log.Printf("agora-query: trace %s — inspect via /debug/trace?id=%s on any node's debug listener",
		tid, tid)
	for i, it := range res.Items {
		fmt.Printf("%2d. [%.3f] %-14s %s  — %s\n", i+1, it.Score, it.Source, it.DocID, it.Snippet)
	}
	if len(res.Items) == 0 {
		fmt.Println("no results")
	}
}
