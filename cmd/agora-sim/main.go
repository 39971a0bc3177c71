// Command agora-sim spins up a simulated Open Agora — providers with
// generated corpora, consumers with generated profiles — runs a query
// workload through the full pipeline (contextualize → personalize →
// optimize → negotiate → execute → settle → learn), and prints a market
// report: per-provider reputation, contract outcomes, QoS delivered.
//
// Usage:
//
//	agora-sim [-seed N] [-docs N] [-sources N] [-users N] [-queries N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 7, "random seed")
	nDocs := flag.Int("docs", 2000, "corpus size")
	nSources := flag.Int("sources", 6, "provider count")
	nUsers := flag.Int("users", 8, "consumer count")
	nQueries := flag.Int("queries", 60, "queries per consumer")
	discovery := flag.Bool("discovery", false, "locate sources via the semantic overlay instead of the registry")
	showTelemetry := flag.Bool("telemetry", true, "print the runtime telemetry report at end of run")
	prom := flag.Bool("prom", false, "print the Prometheus text exposition (/metrics format) at end of run")
	flag.Parse()

	reg := telemetry.NewRegistry()
	a := core.New(core.Config{Seed: *seed, ConceptDim: 32, Telemetry: reg})
	g := workload.NewGenerator(*seed, 32, 8)
	docs := g.GenCorpus(*nDocs, 1.2, int64(24*time.Hour))
	bySource := g.AssignToSources(docs, *nSources, 0.7)

	// Providers with varied economics and hidden behavior.
	for i, list := range bySource {
		econ := core.DefaultEconomics()
		beh := core.DefaultBehavior()
		switch i % 3 {
		case 1: // premium house: pricier, more reliable
			econ.CostBase *= 1.6
			econ.Premium = 1.8
			beh.Reliability = 0.98
		case 2: // discount shop: cheap, flaky
			econ.CostBase *= 0.6
			econ.Premium = 1.05
			beh.Reliability = 0.6
			beh.Availability = 0.9
		}
		node, err := a.AddNode(workload.SourceName(i), econ, beh)
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range list {
			if err := node.Ingest(d.Doc); err != nil {
				log.Fatal(err)
			}
		}
	}

	if *discovery {
		a.EnableOverlayDiscovery(core.DefaultDiscovery())
	}

	users := g.GenUsers(*nUsers)
	var fulfilled, breached, failed int
	var totalPaid, totalResults float64
	var latencies []float64
	for _, u := range users {
		p := profile.New(u.ID, 32)
		p.Interests = u.Concept.Clone()
		p.Weights = u.Archetype.Weights()
		p.Risk = u.Risk
		sess := a.NewSession(p)
		for q := 0; q < *nQueries; q++ {
			text, concept, topicID := g.QueryFor(u)
			topic := g.Topics[topicID].Name
			aql := fmt.Sprintf(`FIND documents WHERE text ~ "%s" AND topic = "%s" TOP 10`, text, topic)
			ans, err := sess.Ask(aql, concept)
			if err != nil {
				failed++
				continue
			}
			totalPaid += ans.Delivered.Price
			totalResults += float64(len(ans.Results))
			latencies = append(latencies, ans.Delivered.Latency.Seconds()*1000)
			for _, out := range ans.Outcomes {
				if out.Fulfilled {
					fulfilled++
				} else {
					breached++
				}
			}
		}
		// Market report per user ledger (last user's shown below).
		if u.ID == users[len(users)-1].ID {
			rep := metrics.NewTable(fmt.Sprintf("Reputation as learned by %s", u.ID),
				"provider", "trust", "observed contracts")
			for _, prov := range sess.Ledger.Ranked() {
				rep.AddRow(prov, sess.Ledger.Trust(prov), len(sess.Ledger.History(prov)))
			}
			fmt.Print(rep.String())
		}
	}

	totalQ := *nUsers * *nQueries
	summary := metrics.NewTable("Market summary",
		"metric", "value")
	summary.AddRow("virtual time elapsed", a.Kernel().Now().String())
	summary.AddRow("queries issued", totalQ)
	summary.AddRow("queries failed (no providers)", failed)
	summary.AddRow("contracts fulfilled", fulfilled)
	summary.AddRow("contracts breached", breached)
	if fulfilled+breached > 0 {
		summary.AddRow("breach rate", float64(breached)/float64(fulfilled+breached))
	}
	summary.AddRow("avg results/query", totalResults/float64(totalQ-failed))
	summary.AddRow("credits spent", totalPaid)
	summary.AddRow("avg latency ms", metrics.Summarize(latencies).Mean)
	if *discovery {
		qm, gm := a.DiscoveryStats()
		summary.AddRow("overlay query msgs", qm)
		summary.AddRow("overlay gossip msgs", gm)
	}
	fmt.Print(summary.String())

	if *showTelemetry {
		fmt.Println("## Runtime telemetry (wall-clock)")
		fmt.Println()
		reg.Snapshot().RenderText(os.Stdout)
	}
	if *prom {
		fmt.Println("## Prometheus exposition")
		fmt.Println()
		reg.RenderPrometheus(os.Stdout)
	}
}
