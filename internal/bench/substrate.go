package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Helpers shared by the substrate experiments (E20, E22–E27). Those
// experiments report counts, ratios of counts and identity flags only, so
// nothing in them looks at a clock: how long the same paths take is read
// from `go run ./benchmark`, and EXPERIMENTS.md names the metric that
// reports each.

func boolAsFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// allocsPer returns process-wide mallocs per call of op by runtime.MemStats
// delta around n calls, after n first calls that fill pools and caches.
// The mean is not floored: one malloc every few calls must show. Other
// goroutines (a connection winding down, the runtime) can only add to a
// window, never subtract, so the smaller of two windows is the reading.
func allocsPer(n int, op func()) float64 {
	window := func() uint64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			op()
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	window()
	return float64(min(window(), window())) / float64(n)
}

// sameHits reports whether two hit slices name the same documents in the
// same order with float-identical scores.
func sameHits(got, want []docstore.Hit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Doc.ID != want[i].Doc.ID || got[i].Score != want[i].Score {
			return false
		}
	}
	return true
}

// runAskPipeline drives the full ask pipeline — 4 users asking a 5-source
// market — with every instrument registered in reg, and returns the number
// of asks it issued.
func runAskPipeline(seed int64, scale float64, reg *telemetry.Registry) int {
	queries := scaleInt(240, scale, 60)
	nDocs := scaleInt(1200, scale, 300)
	a := core.New(core.Config{Seed: seed, ConceptDim: 32, Telemetry: reg})
	g := workload.NewGenerator(seed, 32, 8)
	docs := g.GenCorpus(nDocs, 1.2, int64(24*time.Hour))
	for i, list := range g.AssignToSources(docs, 5, 0.7) {
		node, err := a.AddNode(workload.SourceName(i), core.DefaultEconomics(), core.DefaultBehavior())
		if err != nil {
			panic(err)
		}
		for _, d := range list {
			if err := node.Ingest(d.Doc); err != nil {
				panic(err)
			}
		}
	}
	users := g.GenUsers(4)
	sessions := make([]*core.Session, len(users))
	for i, u := range users {
		p := profile.New(u.ID, 32)
		p.Interests = u.Concept.Clone()
		p.Weights = u.Archetype.Weights()
		sessions[i] = a.NewSession(p)
	}
	for qi := 0; qi < queries; qi++ {
		u := users[qi%len(users)]
		text, concept, topicID := g.QueryFor(u)
		aql := fmt.Sprintf(`FIND documents WHERE text ~ "%s" AND topic = %q TOP 10`,
			text, g.Topics[topicID].Name)
		_, _ = sessions[qi%len(sessions)].Ask(aql, concept)
	}
	return queries
}
