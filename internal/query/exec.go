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

// Result is a scored document from some source: the store's hit, which
// keeps its place in the index that holds it (see docstore.Hit.Terms), and
// where the document says it came from.
type Result struct {
	docstore.Hit
	// Source is the document's Provenance — the source it names as its
	// origin — not the store that served the result.
	Source string
}

// Execute evaluates q against a store. concept is the query's concept
// vector (may be nil when the query has no similarity predicate and text
// scoring suffices). now anchors freshness.
//
// It asks the store for exactly TopK hits unless the query has a filter
// that could drop one (see filtered); a filtered query asks for
// max(5·TopK, 50), so that enough survive. A text or vector top-TopK is the
// first TopK of any longer top-k, so the slack changes no such answer. It
// does change a hybrid answer, because the store ranks pools of max(4k, 32)
// for the k it is asked for: a filtered hybrid ask ranks wider pools than
// an unfiltered one. An unfiltered freshness scan keeps the TopK newest.
func Execute(s *docstore.Store, q *Query, concept feature.Vector, now int64) []Result {
	// Candidate generation: text search if present, vector search if a
	// concept is given, else the newest documents (of the first topic).
	pool := q.TopK
	if q.filtered() {
		pool = max(q.TopK*5, 50)
	}
	// A search returns its hits ranked (score descending, then id), and a
	// filter only drops hits: what passes is ranked already. The time scan
	// comes newest first with every score 1, so its hits are ranked here.
	ranked := true
	var hits []docstore.Hit
	switch {
	case q.Text != "" && len(concept) > 0:
		hits = s.SearchHybrid(q.Text, concept, 0.5, pool)
	case q.Text != "":
		hits = s.SearchText(q.Text, pool)
	case len(concept) > 0:
		hits = s.SearchVector(concept, pool)
	default:
		// A topic-only query scans for the topic's carriers, not just
		// whatever happens to be freshest.
		ranked = false
		topic := ""
		if len(q.Topics) > 0 {
			topic = q.Topics[0]
		}
		hits = s.Newest(topic, pool)
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
		out = append(out, Result{Hit: h, Source: h.Doc.Provenance})
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

// filtered reports whether q has a filter that could drop a hit: every
// field matchesFilters reads.
func (q *Query) filtered() bool {
	return q.Kind != nil || len(q.Topics) > 0 || len(q.NotTopics) > 0 ||
		len(q.Sources) > 0 || len(q.NotSources) > 0 || q.SimThreshold > 0 || q.MaxAge > 0
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
// deduplicating by document ID keeping the best score — the first seen of
// equal ones. The lists are copied into the one slice returned, grouped by
// ID with a stable sort, and each group is cut to its keeper.
func Merge(lists [][]Result, topK int) []Result {
	n := 0
	for _, list := range lists {
		n += len(list)
	}
	out := make([]Result, 0, n)
	for _, list := range lists {
		var max float64
		for _, r := range list {
			if r.Score > max {
				max = r.Score
			}
		}
		for _, r := range list {
			if max > 0 {
				r.Score /= max
			}
			out = append(out, r)
		}
	}
	slices.SortStableFunc(out, func(a, b Result) int { return strings.Compare(a.Doc.ID, b.Doc.ID) })
	kept := out[:0]
	for _, r := range out {
		if k := len(kept) - 1; k >= 0 && kept[k].Doc.ID == r.Doc.ID {
			if r.Score > kept[k].Score {
				kept[k] = r
			}
			continue
		}
		kept = append(kept, r)
	}
	out = kept
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
