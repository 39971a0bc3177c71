package query

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"repro/internal/docstore"
	"repro/internal/feature"
)

// Local execution of a query against one docstore, plus decomposition and
// merging across sources.

// Result is a scored document from some source.
type Result struct {
	Doc    *docstore.Document
	Score  float64
	Source string
}

// Execute evaluates q against a store. concept is the query's concept
// vector (may be nil when the query has no similarity predicate and text
// scoring suffices). now anchors freshness.
func Execute(s *docstore.Store, q *Query, concept feature.Vector, now int64) []Result {
	// Candidate generation: text search if present, vector search if a
	// concept is given, else freshest documents.
	pool := q.TopK * 5
	if pool < 50 {
		pool = 50
	}
	// A search returns its hits ranked (score descending, then id), and a
	// filter only drops hits: what passes is ranked already. The topic and
	// freshness scans come newest first with every score 1, so theirs are
	// ranked here.
	ranked := true
	var hits []docstore.Hit
	switch {
	case q.Text != "" && len(concept) > 0:
		hits = s.SearchHybrid(q.Text, concept, 0.5, pool)
	case q.Text != "":
		hits = s.SearchText(q.Text, pool)
	case len(concept) > 0:
		hits = s.SearchVector(concept, pool)
	case len(q.Topics) > 0:
		// Topic-only query: the topic index finds every carrier, not just
		// whatever happens to be freshest.
		ranked = false
		for _, d := range s.ByTopic(q.Topics[0], pool) {
			hits = append(hits, docstore.Hit{Doc: d, Score: 1})
		}
	default:
		ranked = false
		for _, d := range s.Freshest(pool) {
			hits = append(hits, docstore.Hit{Doc: d, Score: 1})
		}
	}
	room := len(hits)
	if ranked {
		room = min(room, max(q.TopK, 1))
	}
	out := make([]Result, 0, room)
	for _, h := range hits {
		if !matchesFilters(h.Doc, q, concept, now) {
			continue
		}
		out = append(out, Result{Doc: h.Doc, Score: h.Score, Source: h.Doc.Provenance})
		if ranked && len(out) >= q.TopK {
			break
		}
	}
	if !ranked {
		SortResults(out)
	}
	if len(out) > q.TopK {
		out = out[:q.TopK]
	}
	return out
}

func matchesFilters(d *docstore.Document, q *Query, concept feature.Vector, now int64) bool {
	if q.Kind != nil && d.Kind != *q.Kind {
		return false
	}
	for _, want := range q.Topics {
		found := false
		for _, t := range d.Topics {
			if t == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for _, not := range q.NotTopics {
		for _, t := range d.Topics {
			if t == not {
				return false
			}
		}
	}
	for _, not := range q.NotSources {
		if d.Provenance == not {
			return false
		}
	}
	if len(q.Sources) > 0 {
		ok := false
		for _, src := range q.Sources {
			if d.Provenance == src {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if q.SimThreshold > 0 {
		if len(concept) == 0 || feature.Cosine(concept, d.Concept) < q.SimThreshold {
			return false
		}
	}
	if q.MaxAge > 0 {
		cutoff := now - int64(q.MaxAge)
		if d.CreatedAt < cutoff {
			return false
		}
	}
	return true
}

// Merge combines per-source result lists into one ranked top-k, normalizing
// each source's scores into [0,1] (sources use incomparable raw scales) and
// deduplicating by document ID keeping the best score.
func Merge(lists [][]Result, topK int) []Result {
	best := make(map[string]Result)
	for _, list := range lists {
		var max float64
		for _, r := range list {
			if r.Score > max {
				max = r.Score
			}
		}
		for _, r := range list {
			score := r.Score
			if max > 0 {
				score /= max
			}
			cur, ok := best[r.Doc.ID]
			if !ok || score > cur.Score {
				r.Score = score
				best[r.Doc.ID] = r
			}
		}
	}
	out := make([]Result, 0, len(best))
	for _, r := range best {
		out = append(out, r)
	}
	SortResults(out)
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out
}

// SortResults ranks by score descending, ties by document ID.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(a.Doc.ID, b.Doc.ID)
	})
}

// SplitByTopics decomposes a multi-topic query into one subquery per topic
// — the units brokers subcontract for. A query without topics decomposes
// into itself.
func (q *Query) SplitByTopics() []*Query {
	if len(q.Topics) <= 1 {
		cp := *q
		return []*Query{&cp}
	}
	out := make([]*Query, 0, len(q.Topics))
	for _, t := range q.Topics {
		cp := *q
		cp.Topics = []string{t}
		out = append(out, &cp)
	}
	return out
}

// Completeness measures |returned ∩ relevant| / |relevant| — the QoS
// completeness dimension, given ground-truth relevant ids.
func Completeness(results []Result, relevant map[string]bool) float64 {
	if len(relevant) == 0 {
		return 1
	}
	found := 0
	for _, r := range results {
		if relevant[r.Doc.ID] {
			found++
		}
	}
	return float64(found) / float64(len(relevant))
}

// MaxStaleness returns the maximum age of any result at now (the delivered
// freshness QoS dimension). Empty results are perfectly fresh.
func MaxStaleness(results []Result, now int64) time.Duration {
	var worst int64
	for _, r := range results {
		if age := now - r.Doc.CreatedAt; age > worst {
			worst = age
		}
	}
	if worst < 0 {
		worst = 0
	}
	return time.Duration(worst)
}
