package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/docstore"
	"repro/internal/metrics"
)

// E23GroupCommit pins the determinism contract of the group-commit write
// path: writers stage records into the commit pipeline and share one fsync
// per window, and how the windows happen to form must not show in what
// reaches the disk. The same operation sequence committed one-op-per-window
// and committed through batched PutBatch windows must leave BYTE-IDENTICAL
// WALs, and recovery from either log must reconstruct identical stores.
func E23GroupCommit(seed int64, scale float64) *Result {
	n := scaleInt(128, scale, 48)
	const window = 9 // documents per PutBatch on the batched side

	open := func(dir string) *docstore.Store {
		s, err := docstore.Open(docstore.Options{Dir: dir, ConceptDim: 8, Seed: seed, SyncEveryPut: true})
		if err != nil {
			panic(err)
		}
		return s
	}
	// commit writes the sequence — n puts and one delete — into a fresh
	// durable store, batch documents per window (through Put when that is
	// one, so both write entry points are compared), and returns its directory.
	commit := func(batch int) string {
		dir, err := tempDir()
		if err != nil {
			panic(err)
		}
		r := rand.New(rand.NewSource(seed + 23))
		docs := make([]*docstore.Document, n)
		for i := range docs {
			docs[i] = &docstore.Document{
				ID:         fmt.Sprintf("e23-%05d", i),
				Kind:       docstore.KindArticle,
				Title:      fmt.Sprintf("term%03d term%03d", r.Intn(256), r.Intn(256)),
				Text:       fmt.Sprintf("body term%03d term%03d term%03d", r.Intn(256), r.Intn(256), r.Intn(256)),
				Topics:     []string{"t" + fmt.Sprint(i%4)},
				CreatedAt:  int64(i),
				Provenance: "e23",
			}
		}
		s := open(dir)
		for i := 0; i < n; i += batch {
			var err error
			if batch == 1 {
				err = s.Put(docs[i])
			} else {
				err = s.PutBatch(docs[i:min(i+batch, n)])
			}
			if err != nil {
				panic(err)
			}
		}
		if err := s.Delete(docs[n/2].ID); err != nil {
			panic(err)
		}
		if err := s.Close(); err != nil {
			panic(err)
		}
		return dir
	}
	dirA, dirB := commit(1), commit(window)
	defer cleanup(dirA)
	defer cleanup(dirB)

	walA, walB := readWALFile(dirA), readWALFile(dirB)
	byteIdentical := len(walA) > 0 && bytes.Equal(walA, walB)

	ra, rb := open(dirA), open(dirB)
	defer ra.Close()
	defer rb.Close()
	recoveredIdentical := ra.Len() == n-1 && ra.Len() == rb.Len()
	ra.All(func(d *docstore.Document) bool {
		got, err := rb.Get(d.ID)
		if err != nil || got.Title != d.Title || got.Text != d.Text || got.CreatedAt != d.CreatedAt {
			recoveredIdentical = false
		}
		return recoveredIdentical
	})

	table := metrics.NewTable("E23: group-commit WAL determinism (durable, fsync-on-put)",
		"documents per window", "ops", "wal bytes", "recovered docs")
	table.AddRow(1, n+1, len(walA), ra.Len())
	table.AddRow(window, n+1, len(walB), rb.Len())
	table.AddRow("identical", "-", byteIdentical, recoveredIdentical)

	return &Result{ID: "E23", Table: table, Headline: map[string]float64{
		"byte_identical":      boolAsFloat(byteIdentical),
		"recovered_identical": boolAsFloat(recoveredIdentical),
		"wal_bytes":           float64(len(walA)),
		"recovered_docs":      float64(ra.Len()),
	}}
}

// readWALFile returns the raw bytes of the store's log inside dir.
func readWALFile(dir string) []byte {
	paths, err := filepath.Glob(filepath.Join(dir, "wal*"))
	if err != nil || len(paths) == 0 {
		return nil
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		panic(err)
	}
	return raw
}
