package transport

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/docstore"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// startObsServer boots a TCP server with its own seeded telemetry registry
// and returns its address, registry, and a shutdown func.
func startObsServer(t *testing.T, nodeID string, seed uint64) (string, *telemetry.Registry) {
	t.Helper()
	store := seededStore(t, nodeID)
	srv := NewServer(nodeID, store)
	srv.Log = testLogger(t)
	reg := telemetry.NewRegistrySeeded(seed)
	srv.SetTelemetry(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), reg
}

func seededStore(t *testing.T, nodeID string) *docstore.Store {
	t.Helper()
	store, err := docstore.Open(docstore.Options{ConceptDim: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	docs := []*docstore.Document{
		{ID: nodeID + "-1", Title: "byzantine ring", Text: "a gold ring from the byzantine era", Provenance: nodeID},
		{ID: nodeID + "-2", Title: "auction notes", Text: "auction drawing of a silver cup", Provenance: nodeID},
	}
	if err := store.PutBatch(docs); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestDistributedTraceAcrossProcesses is the tentpole acceptance check: an
// agora-query-style ask served by remote nodes produces ONE trace ID
// visible on both sides of the wire, and the per-process snapshots stitch
// into a single tree.
func TestDistributedTraceAcrossProcesses(t *testing.T) {
	addrA, regA := startObsServer(t, "museum", 101)
	addrB, regB := startObsServer(t, "gallery", 202)

	clientReg := telemetry.NewRegistrySeeded(7)
	tr := clientReg.StartTrace("agora-query", "byzantine ring")

	var results []wire.QueryResult
	var spanIDs []telemetry.SpanID
	for _, addr := range []string{addrA, addrB} {
		c, err := DialWithTelemetry(addr, "obs-test", 2*time.Second, clientReg)
		if err != nil {
			t.Fatal(err)
		}
		sp := tr.Span("query", addr)
		res, err := c.QueryTraced("byzantine ring", nil, 5, 2*time.Second, sp.Context())
		sp.End()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		spanIDs = append(spanIDs, sp.ID())
	}
	tr.Finish()

	// One trace ID on every process: the result echoes the ID the server
	// served under, and it is the client's own.
	for i, res := range results {
		if telemetry.TraceID(res.TraceID) != tr.ID() {
			t.Fatalf("result %d trace id %016x, client trace %s", i, res.TraceID, tr.ID())
		}
	}

	// Each server retained the continuation, parented at the client span
	// that issued the query.
	var remote []telemetry.TraceSnapshot
	for i, reg := range []*telemetry.Registry{regA, regB} {
		snaps := reg.TraceByID(tr.ID())
		if len(snaps) == 0 {
			t.Fatalf("server %d retained no snapshot for trace %s", i, tr.ID())
		}
		for _, s := range snaps {
			if s.ParentSpan != spanIDs[i].String() {
				t.Fatalf("server %d parent span %q, want %q", i, s.ParentSpan, spanIDs[i])
			}
		}
		remote = append(remote, snaps...)
	}

	// The stitched tree nests both serve continuations under the client's
	// query spans, with per-node search spans visible.
	local := clientReg.TraceByID(tr.ID())
	if len(local) == 0 {
		t.Fatal("client registry lost its own trace")
	}
	var sb strings.Builder
	telemetry.RenderStitched(&sb, append(local, remote...))
	tree := sb.String()
	if strings.Count(tree, "↘ serve") != 2 {
		t.Fatalf("stitched tree should nest 2 serve continuations:\n%s", tree)
	}
	if !strings.Contains(tree, "search") {
		t.Fatalf("stitched tree missing server-side search span:\n%s", tree)
	}

	// Scrape /metrics off one server's debug mux and hold it to the strict
	// parser; the query latency histogram must carry the trace as exemplar.
	ts := httptest.NewServer(telemetry.DebugMux(regA))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParsePrometheus(string(body))
	if err != nil {
		t.Fatalf("strict parse of /metrics failed: %v\n%s", err, body)
	}
	fam := fams["agora_transport_server_query_seconds"]
	if fam == nil {
		t.Fatalf("query latency family missing; got %d families", len(fams))
	}
	wantEx := tr.ID().String()
	foundEx := false
	for _, s := range fam.Samples {
		if s.Exemplar != nil && s.Exemplar.Labels["trace_id"] == wantEx {
			foundEx = true
		}
	}
	if !foundEx {
		t.Fatalf("no bucket carries exemplar trace_id=%q:\n%s", wantEx, body)
	}

	// CI artifact hook: when OBS_ARTIFACT_DIR is set, persist the rendered
	// trace and scraped exposition for upload.
	if dir := os.Getenv("OBS_ARTIFACT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "trace.txt"), []byte(tree), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "metrics.prom"), body, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("observability artifacts written to %s", dir)
	}
}

// TestUntracedQueryStillServed pins the backward path: a client sending no
// trace context gets served under a fresh server-local trace.
func TestUntracedQueryStillServed(t *testing.T) {
	addr, reg := startObsServer(t, "museum", 55)
	c, err := Dial(addr, "plain", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("auction drawing", nil, 5, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == 0 {
		t.Fatal("server should mint a trace for untraced queries")
	}
	if snaps := reg.TraceByID(telemetry.TraceID(res.TraceID)); len(snaps) == 0 {
		t.Fatal("server-minted trace not retained")
	} else if snaps[0].ParentSpan != "" {
		t.Fatalf("fresh trace should have no parent, got %q", snaps[0].ParentSpan)
	}
}

// TestTraceRetrievableOnceReplyObserved pins the ordering contract: the
// server finishes a query's trace before it writes the reply, so the TraceID
// a reply carries can be looked up the moment the reply is read.
func TestTraceRetrievableOnceReplyObserved(t *testing.T) {
	srv := NewServer("museum", seededStore(t, "museum"))
	srv.Log = testLogger(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(ln.Addr().String(), "plain", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reg *telemetry.Registry
	for i := 0; i < 256; i++ {
		// The tail sampler keeps every trace only until its slow class (24)
		// fills; a fresh registry every 16 asks keeps retention certain, so
		// a miss can only mean the reply overtook Finish.
		if i%16 == 0 {
			reg = telemetry.NewRegistrySeeded(uint64(1000 + i))
			srv.SetTelemetry(reg)
		}
		res, err := c.Query("auction drawing", nil, 5, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(reg.TraceByID(telemetry.TraceID(res.TraceID))) == 0 {
			t.Fatalf("ask %d: reply observed before trace %016x was retained", i, res.TraceID)
		}
	}
}
