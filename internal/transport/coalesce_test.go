package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/docstore"
	"repro/internal/wire"
)

// gatedWriter blocks every Write until the test releases the gate, and
// records each Write call separately so tests can see batch boundaries.
type gatedWriter struct {
	entered chan struct{} // signalled when a Write starts
	gate    chan struct{} // received once per Write before it completes
	mu      sync.Mutex
	writes  [][]byte
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{entered: make(chan struct{}, 16), gate: make(chan struct{})}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.entered <- struct{}{}
	<-g.gate
	g.mu.Lock()
	g.writes = append(g.writes, append([]byte(nil), p...))
	g.mu.Unlock()
	return len(p), nil
}

// frames decodes every recorded Write into its constituent frames.
func (g *gatedWriter) frames(t *testing.T) [][]wire.Frame {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([][]wire.Frame, len(g.writes))
	for i, w := range g.writes {
		rest := w
		for len(rest) > 0 {
			f, n, err := wire.DecodeFrame(rest)
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			out[i] = append(out[i], f)
			rest = rest[n:]
		}
	}
	return out
}

// TestCoalescerBatchesWhileWriteInFlight pins the core batching behavior:
// frames staged while a Write is in flight leave together in the next
// Write, and an idle coalescer flushes a lone frame immediately.
func TestCoalescerBatchesWhileWriteInFlight(t *testing.T) {
	g := newGatedWriter()
	q := newCoalescer(g)

	stage := func(id string) {
		if err := q.stage(wire.KindQuery, &wire.Query{ID: id}); err != nil {
			t.Errorf("stage %s: %v", id, err)
		}
	}

	// The first stager finds the link idle, becomes the leader, and blocks
	// inside Write on its own goroutine.
	leaderDone := make(chan struct{})
	go func() { //lint:allow goroutine test leader; joined via leaderDone below
		stage("a")
		close(leaderDone)
	}()
	<-g.entered // leader is now blocked inside Write carrying frame a
	stage("b")  // followers stage and return while the Write is in flight
	stage("c")
	stage("d")
	g.gate <- struct{}{} // release Write(a); the leader loops for the batch
	<-g.entered          // leader re-entered Write with the staged batch
	g.gate <- struct{}{} // release Write(b c d)
	<-leaderDone
	q.close()

	writes := g.frames(t)
	if len(writes) != 2 {
		t.Fatalf("got %d Writes, want 2 (one per batch)", len(writes))
	}
	if len(writes[0]) != 1 || len(writes[1]) != 3 {
		t.Fatalf("batch sizes %d,%d, want 1,3", len(writes[0]), len(writes[1]))
	}
	for i, id := range []string{"b", "c", "d"} {
		got, err := wire.UnmarshalQuery(writes[1][i].Payload)
		if err != nil || got.ID != id {
			t.Fatalf("batch frame %d: id %q err %v, want %q", i, got.ID, err, id)
		}
	}
	st := q.stats()
	if st.Frames != 4 || st.Flushes != 2 {
		t.Fatalf("stats = %+v, want 4 frames over 2 flushes", st)
	}
}

// TestCoalescerCloseDrains pins the no-lost-flush rule: frames staged
// behind an in-flight Write are still written before close returns.
func TestCoalescerCloseDrains(t *testing.T) {
	g := newGatedWriter()
	q := newCoalescer(g)
	leaderDone := make(chan struct{})
	go func() { //lint:allow goroutine test leader; joined via leaderDone below
		if err := q.stage(wire.KindQuery, &wire.Query{ID: "a"}); err != nil {
			t.Error(err)
		}
		close(leaderDone)
	}()
	<-g.entered // leader blocked inside Write(a)
	if err := q.stage(wire.KindQuery, &wire.Query{ID: "b"}); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { //lint:allow goroutine test helper; joined via closed channel below
		q.close()
		close(closed)
	}()
	g.gate <- struct{}{} // release Write(a); the leader's drain then writes b
	<-g.entered
	g.gate <- struct{}{}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("close did not return after drain")
	}
	<-leaderDone
	writes := g.frames(t)
	total := 0
	for _, w := range writes {
		total += len(w)
	}
	if total != 2 {
		t.Fatalf("%d frames written, want 2 (frame staged before close was lost)", total)
	}
	if err := q.stage(wire.KindQuery, &wire.Query{ID: "late"}); !errors.Is(err, errCoalescerClosed) {
		t.Fatalf("stage after close = %v, want errCoalescerClosed", err)
	}
}

// errWriter fails every Write.
type errWriter struct{ calls atomic.Uint64 }

func (e *errWriter) Write(p []byte) (int, error) {
	e.calls.Add(1)
	return 0, errors.New("boom")
}

// TestCoalescerWriteErrorSticks pins error propagation: after a Write
// fails, staging reports the error instead of buffering forever.
func TestCoalescerWriteErrorSticks(t *testing.T) {
	w := &errWriter{}
	q := newCoalescer(w)
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := q.stage(wire.KindQuery, &wire.Query{ID: "x"})
		if err != nil {
			if err.Error() != "boom" {
				t.Fatalf("stage error = %v, want the write error", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stage never surfaced the write error")
		}
		time.Sleep(time.Millisecond)
	}
	if err := q.close(); err == nil || err.Error() != "boom" {
		t.Fatalf("close error = %v, want the sticky write error", err)
	}
	if w.calls.Load() == 0 {
		t.Fatal("writer never called")
	}
}

// TestClientCoalescerStress drives concurrent Query, TermStats, and a
// feed subscription over ONE client connection — under -race this is the
// demux-correctness and coalescer-interleaving test the satellite asks
// for. Every response must come back on the right channel with the right
// content while frames from all senders share batches.
func TestClientCoalescerStress(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr, "stress", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Subscribe("s1", []string{"emerald"}, nil, 0); err != nil {
		t.Fatal(err)
	}
	// The subscribe frame is on the wire, but the server registers it
	// asynchronously; wait for that before publishing.
	for deadline := time.Now().Add(2 * time.Second); ; {
		srv.mu.Lock()
		n := len(srv.subs)
		srv.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	feedDone := make(chan int)
	go func() { //lint:allow goroutine test feed consumer; joined via feedDone below
		n := 0
		timeout := time.After(5 * time.Second)
		for n < 10 {
			select {
			case <-c.Feed:
				n++
			case <-timeout:
				feedDone <- n
				return
			}
		}
		feedDone <- n
	}()

	var wg sync.WaitGroup
	errc := make(chan error, 128)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() { //lint:allow goroutine test load generator; joined via wg.Wait below
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := c.Query("gold ring", nil, 5, 5*time.Second)
				if err != nil {
					errc <- fmt.Errorf("query: %w", err)
					return
				}
				if len(res.Items) == 0 || res.From != "museum-tcp" {
					errc <- fmt.Errorf("query demux: %d items from %q", len(res.Items), res.From)
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() { //lint:allow goroutine test load generator; joined via wg.Wait below
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := c.TermStats([]string{"gold", "ring"}, 5*time.Second)
				if err != nil {
					errc <- fmt.Errorf("termstats: %w", err)
					return
				}
				if resp.Total != 20 || len(resp.DF) != 2 {
					errc <- fmt.Errorf("termstats demux: total=%d df=%d", resp.Total, len(resp.DF))
					return
				}
			}
		}()
	}
	// Feed pushes interleave with the request/response traffic.
	for i := 0; i < 10; i++ {
		srv.PublishFeed(&docstore.Document{
			ID:    fmt.Sprintf("feed%02d", i),
			Title: fmt.Sprintf("emerald pendant %d", i),
			Text:  "emerald",
		}, uint64(i))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if n := <-feedDone; n != 10 {
		t.Errorf("feed items received = %d, want 10", n)
	}
	st := c.WireStats()
	if st.Frames < 200 { // hello + subscribe + 160 queries + 40 stats
		t.Errorf("client staged %d frames, expected >= 200", st.Frames)
	}
	if st.Flushes > st.Frames {
		t.Errorf("flushes %d > frames %d", st.Flushes, st.Frames)
	}
}

// TestCloseFlushesStagedQueries pins the client-side no-lost-flush rule
// end to end: queries staged immediately before Close still reach the
// server, observable through its Served counter (which survives the
// connection teardown).
func TestCloseFlushesStagedQueries(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr, "closer", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		q := wire.Query{ID: fmt.Sprintf("fire%d", i), Text: "gold", TopK: 1}
		if err := c.out.stage(wire.KindQuery, &q); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Served() < n {
		if time.Now().After(deadline) {
			t.Fatalf("server served %d of %d queries staged before Close", srv.Served(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := srv.WireStats()
	if st.Frames == 0 {
		t.Error("server WireStats recorded no frames")
	}
}

// TestServerBatchesConcurrentResults sanity-checks the server-side
// coalescer: under concurrent queries on one connection, results go out
// in fewer Writes than frames (batching engaged), visible in WireStats.
func TestServerBatchesConcurrentResults(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr, "batcher", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() { //lint:allow goroutine test load generator; joined via wg.Wait below
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := c.Query("gold ring", nil, 5, 5*time.Second); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := srv.WireStats()
	if st.Frames < 160 {
		t.Fatalf("server staged %d frames, want >= 160", st.Frames)
	}
	// Not asserting a batching ratio: on an unloaded fast loopback the
	// leader can keep up frame-for-frame. The ratio is measured (not
	// asserted) in E27 where contention is deliberately induced.
	t.Logf("server wire stats: %d frames in %d flushes (%.2f frames/syscall)",
		st.Frames, st.Flushes, float64(st.Frames)/float64(st.Flushes))
}

// legacyDial opens a raw connection speaking the pre-coalescer protocol:
// one WriteFrame per message, ReadFrame for everything, allocating
// Marshal buffers — exactly what an old peer does on the wire.
func legacyDial(addr string) (net.Conn, *bufio.Reader, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, nil, err
	}
	hello := wire.Hello{NodeID: "legacy"}
	if err := wire.WriteFrame(conn, wire.KindHello, hello.AppendTo(nil)); err != nil {
		conn.Close()
		return nil, nil, err
	}
	r := bufio.NewReader(conn)
	f, err := wire.ReadFrame(r)
	if err != nil || f.Kind != wire.KindHelloAck {
		conn.Close()
		return nil, nil, fmt.Errorf("legacy handshake: %v", err)
	}
	return conn, r, nil
}

// TestLegacyClientAgainstCoalescedServer verifies the legacy single-frame
// writer still interoperates with the coalesced server read path (old
// peer -> new server): same bytes, same answers.
func TestLegacyClientAgainstCoalescedServer(t *testing.T) {
	_, addr := startServer(t)
	conn, r, err := legacyDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := wire.Query{ID: "legacy1", Text: "gold ring", TopK: 3}
	if err := wire.WriteFrame(conn, wire.KindQuery, q.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := wire.ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind != wire.KindQueryResult {
			continue
		}
		res, err := wire.UnmarshalQueryResult(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if res.QueryID != "legacy1" || len(res.Items) == 0 {
			t.Fatalf("legacy roundtrip: id=%q items=%d", res.QueryID, len(res.Items))
		}
		return
	}
}
