package docstore

import "math"

// Distributed-scoring support. A sharded deployment partitions the corpus
// across stores; TF-IDF scores computed against shard-local document
// frequencies would then diverge from a single node holding everything
// (each shard sees a different df, hence different idf floats). The scatter
// router instead sums the shards' TermStats into a GlobalStats and ships
// that with every query; shards score through the identical searchCompiled
// code with only total/df overridden, so the merged top-k is bit-identical
// to the monolithic SearchText result while each shard's addend is still
// true — which the shard checks of its own (Assumed).

// GlobalStats carries corpus-wide statistics for one query: the total live
// document count across all shards and, parallel in Terms/DF, the global
// document frequency of each canonical query term. Terms a shard sees in
// the query but not in Terms score as df 0 (absent from the corpus).
type GlobalStats struct {
	TotalDocs uint64
	Terms     []string
	DF        []uint64
	Assumed   *Assumed // set: answer only while it holds (SearchTextAssuming)
}

// Assumed is the addend of the store being asked, as the router held it: the
// store's own document count and, parallel to GlobalStats.Terms, TermStats.
type Assumed struct {
	Docs     uint64
	DF       []uint64
	MaxRatio []float64
}

// confirms reports whether sn is the store gs was summed over: document
// count and frequencies as assumed — they decide score bits — and no maximum
// ratio above the assumed one, which a router uses only as an upper bound.
func (sn *snapshot) confirms(gs *GlobalStats) bool {
	if gs == nil || gs.Assumed == nil {
		return true
	}
	a, n := gs.Assumed, len(gs.Terms)
	ok := len(a.DF) == n && len(a.MaxRatio) == n && a.Docs == uint64(sn.docCount())
	for i := 0; ok && i < n; i++ {
		st := sn.termStat(gs.Terms[i])
		ok = st.DF == a.DF[i] && st.MaxRatio <= a.MaxRatio[i]
	}
	return ok
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
// for the term (a segment's compiled ratio may include dead documents, so
// the bound is valid, merely loose, under churn).
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
	stats = make([]TermStat, len(terms))
	for i, t := range terms {
		stats[i] = sn.termStat(t)
	}
	return uint64(sn.docCount()), sn.epoch, stats
}

func (sn *snapshot) termStat(t string) TermStat {
	e := sn.ov.termPost[t] // zero where the term is unknown
	df, maxRatio := len(e.post)-e.maskedDF, 0.0
	for _, seg := range sn.segs {
		tm := seg.cx.terms[t]
		df, maxRatio = df+seg.liveDF(tm), max(maxRatio, tm.maxRatio)
	}
	for _, p := range e.post {
		maxRatio = max(maxRatio, tfWeight(p.tf)/math.Sqrt(float64(sn.ov.byID[p.id].docLen)+1))
	}
	return TermStat{DF: uint64(max(df, 0)), MaxRatio: maxRatio}
}

// SearchTextGlobal is SearchText scored under router-supplied global
// statistics, through the same body and the same result cache: the
// statistics are part of the cache key, so one query under two different
// global views is two entries and a repeated ask at an unchanged epoch is a
// lookup. A nil gs is plain SearchText. Returned hits are read-only (see
// Hit).
func (s *Store) SearchTextGlobal(query string, k int, gs *GlobalStats) []Hit {
	hits, _, _ := s.searchText(query, k, gs)
	return hits
}

// SearchTextAssuming is SearchTextGlobal as a shard server asks it: it also
// names the epoch of the snapshot the hits were computed (or cached) at —
// Epoch() read around the call could name another — and answers only if that
// snapshot confirms gs.Assumed: once the store has moved on, no hits, !ok.
func (s *Store) SearchTextAssuming(query string, k int, gs *GlobalStats) (hits []Hit, epoch uint64, ok bool) {
	return s.searchText(query, k, gs)
}
