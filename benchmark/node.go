package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/agora"
	"repro/internal/docstore"
	"repro/internal/telemetry"
)

const (
	searchesPerPut = 8
	deleteEvery    = 16 // cycles between deletes
	deleteLag      = 8  // a delete removes the document put this many cycles ago
	// compactAfter is cmd/agora-node's 64 MiB scaled down so background
	// compaction completes several cycles within a run.
	compactAfter = 1 << 20
)

// node is node_durable: one durable store opened as `agora-node -dir` opens
// it, under single-document puts (each fsynced), local cache-eligible
// searches from a pool larger than the query cache, and deletes; then a
// crash image, compaction, close and recovery.
type node struct {
	cfg    config
	docs   int
	churn  int
	cycles int // put + searches cycles per round

	loaded
	dir   string
	reg   *telemetry.Registry
	store *agora.Store
	next  int             // cycles run
	gone  map[string]bool // churn documents deleted and not put again
}

func newNode(cfg config) *node {
	// 512 cycles are 544 writes, a little over the 512 that fill the store's
	// overlay: every round holds one freeze. At 256 a freeze fell in every
	// other round, and the median round was whichever kind the run had more of.
	n := &node{cfg: cfg, docs: 32768, churn: 4096, cycles: 512}
	if cfg.quick {
		n.docs, n.churn, n.cycles = 2048, 512, 64
	}
	return n
}

func (n *node) options(dir string, reg *telemetry.Registry) agora.StoreOptions {
	return agora.StoreOptions{
		Dir: dir, ConceptDim: conceptDim, Seed: n.cfg.seed, SyncEveryPut: true,
		CompactAfterBytes: compactAfter, Telemetry: reg,
	}
}

func (n *node) setup() error {
	n.in = newInputs(n.cfg.seed, n.docs, n.churn, 0, 1024)
	n.gone = map[string]bool{}
	dir, err := os.MkdirTemp(n.cfg.outDir, n.cfg.workload+"-*")
	if err != nil {
		return err
	}
	n.dir = dir
	n.reg = telemetry.NewRegistry()
	if n.store, err = agora.OpenStore(n.options(filepath.Join(dir, "store"), n.reg)); err != nil {
		return err
	}
	t0 := time.Now()
	err = n.store.PutBatch(docsOf(n.in.corpus))
	n.loadDocs, n.loadSeconds = n.docs, time.Since(t0).Seconds()
	return err
}

func (n *node) round(rec *recorder) error {
	for c := 0; c < n.cycles; c++ {
		d := n.in.churn[n.next%len(n.in.churn)]
		n.next++
		took, err := n.write(rec, "docstore.put", func() error { return n.store.Put(d) })
		if err != nil {
			return err
		}
		rec.observe("write", took)
		delete(n.gone, d.ID)
		rec.counts["write.docs"]++
		rec.counts["write.user_bytes"] += float64(userBytes(d))

		for i := 0; i < searchesPerPut; i++ {
			q := n.in.nextQuery()
			t0 := time.Now()
			hits := n.store.SearchText(q, topK)
			dur := time.Since(t0)
			rec.ask(dur, len(hits) > 0)
			if rec.tr != nil {
				rec.tr.add("docstore.search_local", rootSpan, rec.tr.nextAsk(), t0, dur)
			}
		}
		if n.next%deleteEvery == 0 {
			id := n.in.churn[(n.next-1-deleteLag)%len(n.in.churn)].ID
			if _, err := n.write(rec, "docstore.delete", func() error { return n.store.Delete(id) }); err != nil {
				return err
			}
			n.gone[id] = true
		}
	}
	return nil
}

// write times one acknowledged write call.
func (n *node) write(rec *recorder, name string, call func() error) (time.Duration, error) {
	t0 := time.Now()
	d, err := storeWrite(rec, n.store, call)
	if rec.tr != nil {
		rec.tr.add(name, rootSpan, rec.tr.nextAsk(), t0, d)
	}
	rec.op(err == nil)
	return d, err
}

func (n *node) counters() map[string]float64 {
	m := map[string]float64{}
	addSnapshot(m, n.reg.Snapshot())
	addStoreStats(m, n.store.Stats())
	return m
}

func (n *node) layers(m map[string]float64, un *recorder, delta map[string]float64, _ *recorder) {
	m["docstore.put_us"] = us(percentile(un.series["write"], 50))
	m["docstore.search_local_us"] = us(percentile(un.asks, 50))
	docstoreLayers(m, un, delta)
}

// verify takes a crash image — the store's files copied while it is open —
// and requires the image to recover every acknowledged document and no
// deleted one, timing that recovery. Then it compacts, closes and reopens
// the real store and weighs its directory against the live user bytes.
func (n *node) verify(m map[string]float64) (checked, wrong int, err error) {
	src := filepath.Join(n.dir, "store")
	img := filepath.Join(n.dir, "crash")
	if err := copyCrashImage(src, img); err != nil {
		return 0, 0, err
	}
	// Recovering the image is what a user waits for after a crash: the last
	// background compaction's snapshot plus the WAL written since.
	creg := telemetry.NewRegistry()
	t0 := time.Now()
	crashed, err := agora.OpenStore(agora.StoreOptions{Dir: img, ConceptDim: conceptDim, Seed: n.cfg.seed, Telemetry: creg})
	if err != nil {
		return 0, 0, fmt.Errorf("recovering crash image: %w", err)
	}
	m["recover_s"] = time.Since(t0).Seconds()
	m["docstore.wal_records_replayed"] = float64(creg.Snapshot().Counters["docstore.wal.records.replayed"])
	want := 0
	check := func(id string, live bool) {
		checked++
		_, gerr := crashed.Get(id)
		if (gerr == nil) != live {
			wrong++
		}
		if live {
			want++
		}
	}
	for _, d := range n.in.corpus {
		check(d.Doc.ID, true)
	}
	for i, d := range n.in.churn {
		if i < n.next {
			check(d.ID, !n.gone[d.ID])
		}
	}
	checked++
	if crashed.Len() != want {
		wrong++
	}
	if err := crashed.Close(); err != nil {
		return 0, 0, err
	}

	if err := n.store.Compact(); err != nil {
		return 0, 0, err
	}
	if err := n.store.Close(); err != nil {
		return 0, 0, err
	}
	disk, err := dirBytes(src)
	if err != nil {
		return 0, 0, err
	}
	t0 = time.Now()
	reopened, err := agora.OpenStore(n.options(src, nil))
	if err != nil {
		return 0, 0, fmt.Errorf("reopening: %w", err)
	}
	m["docstore.reopen_s"] = time.Since(t0).Seconds() // compacted: the snapshot alone
	var live int64
	reopened.All(func(d *docstore.Document) bool {
		live += userBytes(d)
		return true
	})
	m["disk_bytes_per_user_byte"] = ratio(float64(disk), float64(live))
	checked++
	if reopened.Len() != want {
		wrong++
	}
	return checked, wrong, reopened.Close()
}

// copyCrashImage copies a live store directory file by file, the WAL before
// the snapshot. A background compaction installs its snapshot before it
// cuts the WAL, so this order can pair an old WAL with a new snapshot
// (which recovers to the same contents) but never a cut WAL with the
// snapshot it no longer covers. A file that vanishes mid-copy is a
// compaction's temporary.
func copyCrashImage(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() > entries[j].Name() }) // wal.agora first
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err == nil {
			_, err = io.Copy(out, in)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		in.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func (n *node) close() error {
	var first error
	if n.store != nil {
		first = n.store.Close()
	}
	if n.dir != "" {
		if err := os.RemoveAll(n.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}
