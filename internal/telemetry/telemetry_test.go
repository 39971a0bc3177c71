package telemetry

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d", got)
	}
	if r.Counter("x") != c {
		t.Fatal("counter not interned")
	}
	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 1..1000 ms: p50 ~ 500ms, p99 ~ 990ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 0.001 || s.Max != 1.0 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
	if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
	if s.P50 < 0.25 || s.P50 > 1.0 {
		t.Fatalf("p50 wildly off: %g", s.P50)
	}
	if math.Abs(s.Mean-0.5005) > 1e-9 {
		t.Fatalf("mean = %g", s.Mean)
	}
}

func TestHistogramRejectsBadSamples(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.ObserveSeconds(math.NaN())
	h.ObserveSeconds(-1)
	if h.Count() != 0 {
		t.Fatalf("bad samples were recorded: %d", h.Count())
	}
}

func TestTraceShapeAndRetention(t *testing.T) {
	r := NewRegistrySeeded(7)
	for i := 0; i < DefaultTraceCapacity+5; i++ {
		tr := r.StartTrace("ask", "q")
		sp := tr.Span("plan", "")
		sp.End()
		neg := tr.Span("negotiate", "src-0")
		neg.Fail(errors.New("boom"))
		tr.Finish()
	}
	traces := r.Snapshot().Traces
	if len(traces) == 0 || len(traces) > DefaultTraceCapacity {
		t.Fatalf("sampler kept %d traces (budget %d)", len(traces), DefaultTraceCapacity)
	}
	got := traces[0]
	if got.Op != "ask" || len(got.Root.Children) != 2 {
		t.Fatalf("trace shape: %+v", got)
	}
	if got.TraceID == "" || got.TraceID == (TraceID(0)).String() {
		t.Fatalf("trace without ID: %+v", got)
	}
	if got.Root.Children[1].Err != "boom" {
		t.Fatalf("span error lost: %+v", got.Root.Children[1])
	}
	if got.Root.DurNS < got.Root.Children[0].DurNS {
		t.Fatalf("root shorter than child")
	}
}

func TestTraceIDsUniqueAndSeeded(t *testing.T) {
	a, b := NewRegistrySeeded(1), NewRegistrySeeded(1)
	t1, t2 := a.StartTrace("ask", ""), a.StartTrace("ask", "")
	if t1.ID() == 0 || t2.ID() == 0 || t1.ID() == t2.ID() {
		t.Fatalf("ids not unique: %v %v", t1.ID(), t2.ID())
	}
	if got := b.StartTrace("ask", "").ID(); got != t1.ID() {
		t.Fatalf("same seed diverged: %v vs %v", got, t1.ID())
	}
	if NewRegistry().StartTrace("ask", "").ID() == NewRegistry().StartTrace("ask", "").ID() {
		t.Fatal("independent registries collided")
	}
	id := t1.ID()
	parsed, err := ParseTraceID(id.String())
	if err != nil || parsed != id {
		t.Fatalf("ParseTraceID round trip: %v %v", parsed, err)
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}
}

func TestTraceContextPropagation(t *testing.T) {
	caller := NewRegistrySeeded(3)
	callee := NewRegistrySeeded(4)
	tr := caller.StartTrace("ask", "find x")
	sp := tr.Span("node", "remote-1")
	ctx := sp.Context()
	if ctx.IsZero() || ctx.TraceID != tr.ID() || ctx.SpanID != sp.ID() {
		t.Fatalf("context = %+v", ctx)
	}

	remote := callee.StartTraceFrom(ctx, "serve", "find x")
	remote.Span("search", "").End()
	remote.Finish()
	sp.End()
	tr.Finish()

	if remote.ID() != tr.ID() {
		t.Fatalf("remote trace got new ID: %v vs %v", remote.ID(), tr.ID())
	}
	snaps := callee.TraceByID(tr.ID())
	if len(snaps) != 1 {
		t.Fatalf("callee retained %d snapshots", len(snaps))
	}
	if snaps[0].ParentSpan != sp.ID().String() {
		t.Fatalf("parent span = %q, want %q", snaps[0].ParentSpan, sp.ID().String())
	}

	// Stitched rendering nests the remote continuation under the caller span.
	all := append(caller.TraceByID(tr.ID()), snaps...)
	var sb strings.Builder
	RenderStitched(&sb, all)
	out := sb.String()
	if !strings.Contains(out, "↘ serve") {
		t.Fatalf("stitched render missing nested continuation:\n%s", out)
	}
	if strings.Count(out, "[trace "+tr.ID().String()+"]") != 2 {
		t.Fatalf("stitched render should show both processes:\n%s", out)
	}

	// Zero context starts a fresh trace.
	fresh := callee.StartTraceFrom(TraceContext{}, "serve", "")
	if fresh.ID() == tr.ID() || fresh.ID() == 0 {
		t.Fatalf("zero context reused ID: %v", fresh.ID())
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Counter("a").Add(2)
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(time.Second)
	tr := r.StartTrace("ask", "q")
	sp := tr.Span("plan", "")
	sp.Child("inner", "").End()
	sp.Fail(errors.New("x"))
	tr.Fail(errors.New("y"))
	tr.Finish()
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 || len(s.Traces) != 0 {
		t.Fatalf("nil registry produced data: %+v", s)
	}
}

func TestNilInstrumentsAllocateNothing(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("a").Inc()
		r.Histogram("h").Observe(time.Millisecond)
		tr := r.StartTrace("ask", "q")
		tr.Span("plan", "").End()
		tr.Finish()
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocates: %g allocs/op", allocs)
	}
}

// TestNilReceiversAreInert holds the package to "a nil instrument is the
// disabled state": every exported method of every type below, called on a
// nil receiver with zero-value arguments, returns without panicking, and so
// does serving a request through any http.Handler it returns. The package's
// own source is parsed too, so an exported type that gains an exported
// pointer-receiver method must join the list.
func TestNilReceiversAreInert(t *testing.T) {
	nils := []any{(*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil), (*Registry)(nil), (*Trace)(nil), (*Span)(nil), (*Logger)(nil)}
	listed := map[string]bool{}
	for _, v := range nils {
		rv := reflect.ValueOf(v)
		listed[rv.Type().Elem().Name()] = true
		for i := 0; i < rv.NumMethod(); i++ {
			m, name := rv.Method(i), rv.Type().Method(i).Name
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("(%T).%s panics on a nil receiver: %v", v, name, p)
					}
				}()
				call := m.Call
				if m.Type().IsVariadic() {
					call = m.CallSlice
				}
				for _, out := range call(args) {
					if h, ok := out.Interface().(http.Handler); ok {
						h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/?id=00000000000000ff", nil))
					}
				}
			}()
		}
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() {
				continue
			}
			star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			if id, ok := star.X.(*ast.Ident); ok && id.IsExported() && !listed[id.Name] {
				t.Errorf("%s: (*%s).%s is exported, but %s is not in this test's list of nil receivers", fset.Position(fn.Pos()), id.Name, fn.Name.Name, id.Name)
			}
		}
	}
}

func TestSnapshotJSONAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("transport.server.queries").Add(3)
	r.Histogram("core.ask.latency").Observe(12 * time.Millisecond)
	tr := r.StartTrace("ask", "find rings")
	tr.Span("merge", "").End()
	tr.Finish()

	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatal(err)
	}
	if round.Counters["transport.server.queries"] != 3 {
		t.Fatalf("json round trip: %s", raw)
	}
	if round.Histograms["core.ask.latency"].Count != 1 {
		t.Fatalf("histogram lost: %s", raw)
	}
	if len(round.Traces) != 1 || round.Traces[0].Query != "find rings" {
		t.Fatalf("trace lost: %s", raw)
	}

	text := r.Snapshot().String()
	for _, want := range []string{"transport.server.queries", "core.ask.latency", "Recent traces"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text render missing %q:\n%s", want, text)
		}
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("served").Inc()
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()

	for _, path := range []string{"/debug/vars", "/debug/telemetry", "/debug/pprof/"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := srv.Client().Get(srv.URL + "/debug/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["served"] != 1 {
		t.Fatalf("telemetry endpoint: %+v", snap)
	}
}

func TestLoggerLevels(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, LevelWarn)
	l.Debugf("hidden %d", 1)
	l.Infof("hidden too")
	l.Warnf("shown %s", "w")
	l.Errorf("shown e")
	out := sb.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("below-threshold lines written:\n%s", out)
	}
	if !strings.Contains(out, "shown w") || !strings.Contains(out, "shown e") {
		t.Fatalf("threshold lines missing:\n%s", out)
	}
	var nilLogger *Logger
	nilLogger.Errorf("must not panic")
	if nilLogger.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
	if lv, err := ParseLevel("warn"); err != nil || lv != LevelWarn {
		t.Fatalf("ParseLevel: %v %v", lv, err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
}
