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
