package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestMismatchedStatsRefusedOverTCP: a scatter query whose StatsDF is
// shorter than its StatsTerms used to panic the shard server (the docstore
// indexed DF by a position found in Terms). The server now refuses the
// frame — no reply, a read error counted — and the same connection keeps
// serving: the next well-formed query is answered, at the store's epoch.
func TestMismatchedStatsRefusedOverTCP(t *testing.T) {
	srv, addr := startServer(t)
	reg := telemetry.NewRegistry()
	srv.SetTelemetry(reg)
	c, err := Dial(addr, "router", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	terms := []string{"gold", "ring"}
	_, err = c.QueryGlobal("gold ring", 5, 300*time.Millisecond, telemetry.TraceContext{}, 10, terms, []uint64{1})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("mismatched stats: err = %v, want no reply (ErrTimeout)", err)
	}
	if got := reg.Counter("transport.server.read.errors").Value(); got != 1 {
		t.Fatalf("read errors = %d, want 1", got)
	}
	if srv.Served() != 0 {
		t.Fatalf("refused query counted as served (%d)", srv.Served())
	}

	// Same connection, well-formed statistics. Two different asks back to
	// back also show the reply scratch is encoded before it is reused.
	five, err := c.QueryGlobal("gold ring", 5, 2*time.Second, telemetry.TraceContext{}, 20, terms, []uint64{20, 20})
	if err != nil {
		t.Fatalf("good query after the bad frame: %v", err)
	}
	two, err := c.QueryGlobal("gold", 2, 2*time.Second, telemetry.TraceContext{}, 20, terms[:1], []uint64{20})
	if err != nil {
		t.Fatal(err)
	}
	if len(five.Items) != 5 || len(two.Items) != 2 || five.Items[0].DocID == "" || two.Items[1].Snippet == "" {
		t.Fatalf("answers after the bad frame: %+v / %+v", five.Items, two.Items)
	}
	if five.Epoch != srv.Store.Epoch() || two.Epoch != five.Epoch {
		t.Fatalf("reply epochs %d, %d; store at %d", five.Epoch, two.Epoch, srv.Store.Epoch())
	}
}

// TestMismatchedAssumedFiguresRefused: the assumed arrays are parallel to
// StatsTerms like StatsDF is, and a query where they are not is refused the
// same way — no reply, a read error counted, the connection kept.
func TestMismatchedAssumedFiguresRefused(t *testing.T) {
	srv, addr := startServer(t)
	reg := telemetry.NewRegistry()
	srv.SetTelemetry(reg)
	c, err := Dial(addr, "router", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := wire.Query{
		Text: "gold ring", TopK: 5, GlobalDocs: 20, StatsTerms: []string{"gold", "ring"}, StatsDF: []uint64{20, 20},
		Assumed: true, AssumedDocs: 20, AssumedDF: []uint64{20, 20}, AssumedMaxRatio: []float64{1},
	}
	if _, err := c.StartQuery(q, 300*time.Millisecond).Wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("one ratio for two terms: err = %v, want no reply (ErrTimeout)", err)
	}
	q.AssumedDF, q.AssumedMaxRatio = []uint64{20, 20, 20}, []float64{1, 1}
	if _, err := c.StartQuery(q, 300*time.Millisecond).Wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("three frequencies for two terms: err = %v, want no reply (ErrTimeout)", err)
	}
	if got := reg.Counter("transport.server.read.errors").Value(); got != 2 || srv.Served() != 0 {
		t.Fatalf("read errors = %d, served = %d, want 2 and 0", got, srv.Served())
	}
	q.AssumedDF = q.AssumedDF[:2]
	if res, err := c.StartQuery(q, 2*time.Second).Wait(); err != nil || res.Drift || len(res.Items) != 5 {
		t.Fatalf("good query after the bad frames: %+v err %v", res, err)
	}
}

// TestDriftReplyCorrectsAndCountsNothing: a query whose assumed figures the
// store contradicts is answered with the store's figures and epoch, no
// items, a search span tagged drift, and Served unmoved; the same query
// under the corrected figures is answered, at that epoch, and a repeat of it
// is served from the cache without searching again.
func TestDriftReplyCorrectsAndCountsNothing(t *testing.T) {
	srv, addr := startServer(t)
	reg := telemetry.NewRegistry()
	srv.SetTelemetry(reg)
	c, err := Dial(addr, "router", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	terms := []string{"gold", "ring"}
	q := wire.Query{
		Text: "gold ring", TopK: 5, GlobalDocs: 40, StatsTerms: terms, StatsDF: []uint64{40, 40},
		Assumed: true, AssumedDocs: 19, AssumedDF: []uint64{19, 19}, AssumedMaxRatio: []float64{1, 1},
	}
	res, err := c.StartQuery(q, 2*time.Second).Wait()
	if err != nil {
		t.Fatal(err)
	}
	total, epoch, stats := srv.Store.TermStats(terms)
	if !res.Drift || len(res.Items) != 0 || res.Docs != total || res.Epoch != epoch ||
		len(res.DF) != 2 || res.DF[0] != stats[0].DF || res.MaxRatio[1] != stats[1].MaxRatio {
		t.Fatalf("drift reply %+v, store at total %d epoch %d stats %+v", res, total, epoch, stats)
	}
	if srv.Served() != 0 || srv.WireStats().Frames != 2 || srv.Store.Stats().Searches != 0 {
		t.Fatalf("a drift reply is a frame that answered and searched nothing: served %d, frames %d (handshake + reply), searches %d",
			srv.Served(), srv.WireStats().Frames, srv.Store.Stats().Searches)
	}
	snaps := reg.TraceByID(telemetry.TraceID(res.TraceID))
	if len(snaps) == 0 || len(snaps[0].Root.Children) != 1 || snaps[0].Root.Children[0].Name != "search-global" || snaps[0].Root.Children[0].Err != "drift" {
		t.Fatalf("serve trace of the refused query: %+v", snaps)
	}

	// A ratio may be assumed too high — it is an upper bound — but not too low.
	q.AssumedDocs, q.AssumedDF, q.AssumedMaxRatio = res.Docs, res.DF, []float64{res.MaxRatio[0], res.MaxRatio[1] / 2}
	if low, err := c.StartQuery(q, 2*time.Second).Wait(); err != nil || !low.Drift {
		t.Fatalf("ratio assumed below the store's: %+v err %v", low, err)
	}
	q.AssumedMaxRatio = []float64{res.MaxRatio[0] * 2, res.MaxRatio[1]}
	for pass, searches := range []uint64{1, 1} {
		ok, err := c.StartQuery(q, 2*time.Second).Wait()
		if err != nil || ok.Drift || len(ok.Items) != 5 || ok.Epoch != epoch {
			t.Fatalf("pass %d under the corrected figures: %+v err %v", pass, ok, err)
		}
		if srv.Served() != uint64(pass+1) || srv.Store.Stats().Searches != searches {
			t.Fatalf("pass %d: served %d, searches %d", pass, srv.Served(), srv.Store.Stats().Searches)
		}
	}
}

// FuzzUnmarshalQuery drives the server's query path with arbitrary payload
// bytes. Decoding must never panic. Whatever decodes is either refused by
// checkQuery — before anything touches a store: the refusing server here
// has none — or, when it asks for global scoring, served from a real store
// without panicking, whatever totals, frequencies and k it carries.
func FuzzUnmarshalQuery(f *testing.F) {
	good := wire.Query{ID: "q1", Text: "gold ring", TopK: 5, GlobalDocs: 20, StatsTerms: []string{"gold", "ring"}, StatsDF: []uint64{20, 20}}
	f.Add(good.AppendTo(nil))
	short := good
	short.StatsDF = []uint64{1}
	f.Add(short.AppendTo(nil))
	long := good
	long.StatsDF = []uint64{1, 2, 3}
	f.Add(long.AppendTo(nil))
	huge := good
	huge.GlobalDocs, huge.TopK, huge.StatsDF = 1<<63+5, 1<<32-1, []uint64{1 << 63, 0}
	f.Add(huge.AppendTo(nil))
	f.Add((&wire.Query{ID: "q2", Text: "gold"}).AppendTo(nil)) // no stats tail at all
	assumed := good
	assumed.Assumed, assumed.AssumedDocs, assumed.AssumedDF, assumed.AssumedMaxRatio = true, 20, []uint64{20, 20}, []float64{0.5, 0.5}
	f.Add(assumed.AppendTo(nil)) // confirmed or refused for drift, answered either way
	assumed.AssumedMaxRatio = []float64{0.5}
	f.Add(assumed.AppendTo(nil))                        // refused: one ratio for two terms
	f.Add(append(good.AppendTo(nil), 0xAA, 0xBB, 0xCC)) // a tail too short to be the figures
	f.Add([]byte{})
	f.Add([]byte("this is not a query"))

	withStore, _ := startServer(f)
	silent := func(string, ...any) {}
	withStore.Logf = silent

	f.Fuzz(func(t *testing.T, data []byte) {
		wq, err := wire.UnmarshalQueryShared(data)
		if _, ownedErr := wire.UnmarshalQuery(data); (err == nil) != (ownedErr == nil) {
			t.Fatalf("shared decode err=%v, owned decode err=%v", err, ownedErr)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		cs := &connState{out: newCoalescer(&out)}
		if checkQuery(&wq) != nil {
			noStore := &Server{NodeID: "fuzz", Logf: silent}
			noStore.serveQuery(cs, data)
			if out.Len() != 0 || noStore.Served() != 0 {
				t.Fatalf("refused query was answered (%d bytes)", out.Len())
			}
			return
		}
		if wq.GlobalDocs == 0 {
			return // local asks go through the AQL pipeline, not this PR's path
		}
		withStore.serveQuery(cs, data)
		fr, _, err := wire.DecodeFrame(out.Bytes())
		if err != nil || fr.Kind != wire.KindQueryResult {
			t.Fatalf("accepted query got no result frame: %v", err)
		}
		if res, err := wire.UnmarshalQueryResult(fr.Payload); err != nil || res.QueryID != wq.ID {
			t.Fatalf("reply %+v err %v for query %q", res, err, wq.ID)
		}
	})
}
