package main

import (
	"time"

	"repro/internal/docstore"
	"repro/internal/telemetry"
)

// addSnapshot adds a registry's counters, and each histogram's count and
// sum (seconds), into m. Several stores' registries add up.
func addSnapshot(m map[string]float64, s telemetry.Snapshot) {
	for name, v := range s.Counters {
		m[name] += float64(v)
	}
	for name, h := range s.Histograms {
		m[name+".count"] += float64(h.Count)
		m[name+".sum"] += h.Sum
	}
}

func addStoreStats(m map[string]float64, st docstore.Stats) {
	m["docstore.searches"] += float64(st.Searches)
	m["docstore.blocks_decoded"] += float64(st.BlocksDecoded)
	m["docstore.blocks_skipped"] += float64(st.BlocksSkipped)
}

// storeWrite times one write call on a store and accounts the WAL bytes it
// appended (a background compaction can shrink the WAL in between; such a
// call adds nothing).
func storeWrite(rec *recorder, st *docstore.Store, write func() error) (time.Duration, error) {
	wal := st.Stats().WALBytes
	t0 := time.Now()
	err := write()
	d := time.Since(t0)
	rec.observe("docstore.write", d)
	if grew := st.Stats().WALBytes - wal; grew > 0 {
		rec.counts["docstore.wal_bytes"] += float64(grew)
	}
	return d, err
}

// stallFactor marks a write call as stalled: this many times the median.
// One freeze of a 16k-document shard is 20 to 40 median writes long.
const stallFactor = 10

// writeMetrics adds the write-side numbers a user sees: documents
// acknowledged per second spent inside write calls, and the latency of one
// write call.
func writeMetrics(m map[string]float64, un *recorder) {
	writes := un.series["write"]
	var inside time.Duration
	for _, d := range writes {
		inside += d
	}
	m["write_docs_per_s"] = ratio(un.counts["write.docs"], inside.Seconds())
	m["write_p50_ms"] = ms(percentile(writes, 50))
	m["write_p99_ms"] = ms(percentile(writes, 99))
}

// docstoreLayers adds the docstore's read, write and background metrics
// from the stores' public counters over the untraced rounds.
func docstoreLayers(m map[string]float64, un *recorder, delta map[string]float64) {
	m["docstore.blocks_decoded_per_search"] = ratio(delta["docstore.blocks_decoded"], delta["docstore.searches"])
	m["docstore.blocks_skipped_ratio"] = ratio(delta["docstore.blocks_skipped"], delta["docstore.blocks_skipped"]+delta["docstore.blocks_decoded"])
	m["docstore.cache_hit_ratio"] = ratio(delta["docstore.cache.hits"], delta["docstore.cache.hits"]+delta["docstore.cache.misses"])

	calls := un.series["docstore.write"]
	m["docstore.freezes"] = ratio(delta["docstore.snapshot.freezes"], float64(len(un.rounds)))
	limit := stallFactor * percentile(calls, 50)
	var stalls []time.Duration
	var stalled time.Duration
	for _, d := range calls {
		if d > limit {
			stalls = append(stalls, d)
			stalled += d
		}
	}
	m["docstore.freeze_stall_ms"] = ms(percentile(stalls, 50))
	m["docstore.freeze_stall_share"] = ratio(stalled.Seconds(), un.wall().Seconds())
	m["docstore.wal_syncs_per_write"] = ratio(delta["docstore.wal.syncs"], float64(len(calls)))
	m["docstore.wal_group_size"] = ratio(delta["docstore.wal.group_size"], delta["docstore.wal.windows"])
	m["docstore.wal_bytes_per_user_byte"] = ratio(un.counts["docstore.wal_bytes"], un.counts["write.user_bytes"])
	m["docstore.compactions"] = delta["docstore.compact.count"]
	m["docstore.compact_s"] = ratio(delta["docstore.compact.sum"], delta["docstore.compact.count"])
}
