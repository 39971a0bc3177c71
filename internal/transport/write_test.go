package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// errConn is a connection whose every Write fails.
type errConn struct {
	net.Conn
	calls atomic.Uint64
}

func (e *errConn) Write(p []byte) (int, error) {
	e.calls.Add(1)
	return 0, errors.New("boom")
}

func (e *errConn) Close() error { return nil }

// TestWriteErrorSticks pins error propagation: after a Write fails, every
// later send reports that error without writing, and Close returns it.
func TestWriteErrorSticks(t *testing.T) {
	w := &errConn{}
	done := make(chan struct{})
	close(done) // no read loop runs
	q := &Client{conn: w, done: done}
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := q.writeFrame(wire.KindQuery, &wire.Query{ID: "x"})
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
	if err := q.writeFrame(wire.KindQuery, &wire.Query{ID: "y"}); err == nil || err.Error() != "boom" || w.calls.Load() != 1 {
		t.Fatalf("send after a failed write = %v after %d writes, want the sticky error and no write", err, w.calls.Load())
	}
	if err := q.Close(); err == nil || err.Error() != "boom" {
		t.Fatalf("close error = %v, want the sticky write error", err)
	}
	if w.calls.Load() == 0 {
		t.Fatal("writer never called")
	}
}

// TestSendAfterCloseFails pins the end of a client: a send after Close
// fails, and Close does not wait behind a Write blocked on a peer that
// stopped reading — closing the socket is what fails that Write.
func TestSendAfterCloseFails(t *testing.T) {
	c, _ := dialMutePeer(t)
	// Queries large enough to fill both socket buffers: the writer ends up
	// blocked inside Write, since the peer reads nothing after the handshake.
	big := wire.Query{ID: "big", Text: strings.Repeat("gold ", 1<<17)}
	wrote := make(chan error, 1)
	go func() { //lint:allow goroutine test writer; joined via the wrote channel below
		for {
			if err := c.writeFrame(wire.KindQuery, &big); err != nil {
				wrote <- err
				return
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	closed := make(chan struct{})
	go func() { //lint:allow goroutine test helper; joined via the closed channel below
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close waited behind a Write blocked on a peer that stopped reading")
	}
	select {
	case err := <-wrote:
		if err == nil {
			t.Fatal("blocked write ended without an error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the blocked write never failed")
	}
	if err := c.writeFrame(wire.KindQuery, &wire.Query{ID: "late"}); !errors.Is(err, errClosed) {
		t.Fatalf("send after close = %v, want errClosed", err)
	}
}

// TestClientConcurrentStress drives concurrent plain queries and scatter
// queries answered by a drift reply over ONE client connection — under -race
// this is the demux-correctness and write-interleaving test. Every response
// must come back on the right channel with the right content, and every
// frame on either side is written with a Write of its own.
func TestClientConcurrentStress(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr, "stress", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

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
			zeros := []uint64{0, 0}
			q := wire.Query{
				Text: "gold ring", StatsTerms: []string{"gold", "ring"}, StatsDF: zeros,
				Assumed: true, AssumedDF: zeros, AssumedMaxRatio: []float64{0, 0},
			}
			for i := 0; i < 10; i++ {
				resp, err := c.StartQuery(q, 5*time.Second).Wait()
				if err != nil {
					errc <- fmt.Errorf("drift query: %w", err)
					return
				}
				if !resp.Drift || resp.Docs != 20 || len(resp.DF) != 2 {
					errc <- fmt.Errorf("drift demux: drift=%v docs=%d df=%d", resp.Drift, resp.Docs, len(resp.DF))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := c.WireStats()
	if st.Frames < 200 { // hello + 160 queries + 40 drift queries
		t.Errorf("client staged %d frames, expected >= 200", st.Frames)
	}
	if st.Flushes > st.Frames {
		t.Errorf("flushes %d > frames %d", st.Flushes, st.Frames)
	}
	for side, ws := range map[string]WireStats{"client": st, "server": srv.WireStats()} {
		if ws.Frames < 200 || ws.Flushes != ws.Frames {
			t.Errorf("%s wrote %d frames in %d Writes, want >= 200 frames, one Write each", side, ws.Frames, ws.Flushes)
		}
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
		if err := c.writeFrame(wire.KindQuery, &q); err != nil {
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

// legacyDial opens a raw connection speaking the plain protocol: one
// allocating WriteFrame per message, ReadFrame for everything — exactly what
// an old peer does on the wire.
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

// TestLegacyClientAgainstServer verifies the legacy single-frame writer
// still interoperates with the server (old peer -> new server): same bytes,
// same answers.
func TestLegacyClientAgainstServer(t *testing.T) {
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
