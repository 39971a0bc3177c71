package docstore

import "math"

// Distributed-scoring support. A sharded deployment partitions the corpus
// across stores; TF-IDF scores computed against shard-local document
// frequencies would then diverge from a single node holding everything
// (each shard sees a different df, hence different idf floats). The scatter
// router instead collects per-shard TermStats once, sums them into a
// GlobalStats, and ships that with every query; shards score through the
// identical searchCompiled code with only total/df overridden, so the
// merged top-k is bit-identical to the monolithic SearchText result.

// GlobalStats carries corpus-wide statistics for one query: the total live
// document count across all shards and, parallel in Terms/DF, the global
// document frequency of each canonical query term. Terms a shard sees in
// the query but not in Terms score as df 0 (absent from the corpus).
type GlobalStats struct {
	TotalDocs uint64
	Terms     []string
	DF        []uint64
}

// dfOf returns the global document frequency for t. Queries carry a
// handful of terms, so a linear scan beats a map here — and it keeps the
// hot query path allocation-free.
func (gs *GlobalStats) dfOf(t string) uint64 {
	for i := range gs.Terms {
		if gs.Terms[i] == t {
			return gs.dfAt(i)
		}
	}
	return 0
}

// dfAt is DF[i], or 0 when DF is shorter than Terms: the struct arrives off
// the wire, and a term without a frequency scores as absent rather than
// indexing out of range.
func (gs *GlobalStats) dfAt(i int) uint64 {
	if i < len(gs.DF) {
		return gs.DF[i]
	}
	return 0
}

// TermStat is one term's shard-local statistics: live document frequency
// and the maximum normalized term-weight ratio max_d (1+ln tf_d)/√(len_d+1)
// over the shard's documents. A router sums DF across shards into global
// frequencies and uses qw·idf·MaxRatio as this shard's score upper bound
// for the term (the compiled ratio may include masked documents, so the
// bound is valid, merely loose, under churn).
type TermStat struct {
	DF       uint64
	MaxRatio float64
}

// TermStats reports the live document count, snapshot epoch, and per-term
// statistics for the given canonical terms, all read from one snapshot (so
// the figures are mutually consistent). Lock-free: concurrent writers keep
// publishing new epochs while this reads an old one.
func (s *Store) TermStats(terms []string) (total uint64, epoch uint64, stats []TermStat) {
	sn := s.snap.Load()
	cx := sn.base.cx
	ov := sn.ov
	stats = make([]TermStat, len(terms))
	for i, t := range terms {
		tm, e := cx.terms[t], ov.termPost[t] // zero where the term is unknown
		df := int(tm.df) - e.maskedDF + len(e.post)
		maxRatio := tm.maxRatio
		for _, p := range e.post {
			maxRatio = max(maxRatio, tfWeight(p.tf)/math.Sqrt(float64(ov.byID[p.id].docLen)+1))
		}
		stats[i] = TermStat{DF: uint64(max(df, 0)), MaxRatio: maxRatio}
	}
	return uint64(sn.docCount()), sn.epoch, stats
}

// SearchTextGlobal is SearchText scored under router-supplied global
// statistics, through the same body and the same result cache: the
// statistics are part of the cache key, so one query under two different
// global views is two entries and a repeated ask at an unchanged epoch is a
// lookup. A nil gs is plain SearchText. Returned hits are read-only (see
// Hit).
func (s *Store) SearchTextGlobal(query string, k int, gs *GlobalStats) []Hit {
	hits, _ := s.searchText(query, k, gs)
	return hits
}

// SearchTextGlobalAt is SearchTextGlobal that also reports the epoch of the
// snapshot the hits were computed (or cached) at. A server puts that in its
// reply: Epoch() read around the call could name a different snapshot.
func (s *Store) SearchTextGlobalAt(query string, k int, gs *GlobalStats) ([]Hit, uint64) {
	return s.searchText(query, k, gs)
}
