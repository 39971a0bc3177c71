package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func startServer(t testing.TB) (*Server, string) {
	t.Helper()
	st, err := docstore.Open(docstore.Options{ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		v := make(feature.Vector, 8)
		v[i%8] = 1
		if err := st.Put(&docstore.Document{
			ID:      fmt.Sprintf("d%02d", i),
			Title:   fmt.Sprintf("gold ring number %d", i),
			Text:    "byzantine filigree ancient jewelry",
			Concept: v, CreatedAt: int64(i), Provenance: "srv",
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer("museum-tcp", st)
	srv.Logf = t.Logf
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func TestHandshakeAndPing(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, "iris", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.RemoteID != "museum-tcp" {
		t.Fatalf("remote id = %q", c.RemoteID)
	}
	rtt, err := c.Ping(2 * time.Second)
	if err != nil || rtt <= 0 {
		t.Fatalf("ping: %v %v", rtt, err)
	}
}

func TestQueryOverTCP(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, "iris", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("gold ring byzantine", nil, 5, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) == 0 {
		t.Fatal("no items")
	}
	if res.From != "museum-tcp" || res.Items[0].Source != "museum-tcp" {
		t.Fatalf("res = %+v", res)
	}
	if res.Elapsed < 0 {
		t.Fatal("negative elapsed")
	}
}

func TestAQLOverTCP(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, "iris", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query(`FIND documents WHERE text ~ "gold ring" TOP 2`, nil, 10, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 {
		t.Fatalf("AQL TOP ignored: %d items", len(res.Items))
	}
}

func TestConcurrentQueries(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, "iris", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Query("gold", nil, 3, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if len(res.Items) == 0 {
				errs <- fmt.Errorf("empty result")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFeedSubscription(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr, "iris", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe("s1", []string{"auction"}, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Give the server a beat to register the subscription.
	time.Sleep(50 * time.Millisecond)
	srv.PublishFeed(&docstore.Document{ID: "new1", Title: "auction catalog item"}, 1)
	srv.PublishFeed(&docstore.Document{ID: "new2", Title: "unrelated magazine"}, 2)
	select {
	case item := <-c.Feed:
		if item.DocID != "new1" {
			t.Fatalf("item = %+v", item)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no feed item")
	}
	// The non-matching item must not arrive.
	select {
	case item := <-c.Feed:
		t.Fatalf("unexpected item %+v", item)
	case <-time.After(200 * time.Millisecond):
	}
	// Unsubscribe stops deliveries.
	if err := c.Unsubscribe("s1"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	srv.PublishFeed(&docstore.Document{ID: "new3", Title: "auction again"}, 3)
	select {
	case item := <-c.Feed:
		t.Fatalf("delivered after unsubscribe: %+v", item)
	case <-time.After(200 * time.Millisecond):
	}
}

func TestMultipleClients(t *testing.T) {
	_, addr := startServer(t)
	var clients []*Client
	for i := 0; i < 5; i++ {
		c, err := Dial(addr, fmt.Sprintf("u%d", i), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for _, c := range clients {
		if _, err := c.Query("gold", nil, 2, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr, "iris", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	// Further queries fail promptly rather than hanging.
	if _, err := c.Query("gold", nil, 2, 2*time.Second); err == nil {
		t.Fatal("query after server close should fail")
	}
}

func TestServerSurvivesGarbageBytes(t *testing.T) {
	srv, addr := startServer(t)
	// Raw connection spewing garbage: the server must drop it without
	// crashing or wedging other clients.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("this is not an agora frame at all 1234567890")); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	// A frame with a corrupted checksum likewise.
	raw2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	frame := wire.EncodeFrame(nil, wire.KindQuery, []byte("payload"))
	frame[len(frame)-1] ^= 0xFF
	if _, err := raw2.Write(frame); err != nil {
		t.Fatal(err)
	}
	raw2.Close()

	// A healthy client still gets service.
	c, err := Dial(addr, "iris", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("gold", nil, 3, 2*time.Second); err != nil {
		t.Fatalf("healthy client starved after garbage: %v", err)
	}
	_ = srv
}

// TestPendingCallsLeaveTheTable drives the ways a call ends without a reply,
// against a peer that acknowledges the handshake and then never answers: a
// timeout and a failed stage each drop their own entry, calls staged
// together expire together, a hedge's loser is dropped (and its late reply
// discarded), the read loop's death wakes the calls still waiting and
// empties the table, and a stage that fails after that closes nothing twice.
func TestPendingCallsLeaveTheTable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(peer)
			return
		}
		ack := wire.Hello{NodeID: "mute"}
		if _, err := wire.ReadFrame(bufio.NewReader(conn)); err == nil {
			err = wire.WriteFrame(conn, wire.KindHelloAck, ack.AppendTo(nil))
		}
		if err != nil {
			conn.Close()
			close(peer)
			return
		}
		peer <- conn
	}()
	c, err := Dial(ln.Addr().String(), "iris", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, ok := <-peer
	if !ok {
		t.Fatal("mute peer failed its handshake")
	}
	inFlight := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.queries)
	}

	if _, err := c.Query("gold", nil, 3, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("query to a mute peer: %v, want ErrTimeout", err)
	}
	if _, err := c.TermStats([]string{"gold"}, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("term stats to a mute peer: %v, want ErrTimeout", err)
	}
	if n := inFlight(); n != 0 {
		t.Fatalf("%d entries left after two timeouts", n)
	}

	// Staged together, waited for in turn: the deadline runs from staging, so
	// the second wait does not start a timeout of its own.
	first := c.StartQuery(wire.Query{Text: "gold"}, 20*time.Millisecond)
	second := c.StartQuery(wire.Query{Text: "ring"}, 20*time.Millisecond)
	if n := inFlight(); n != 2 {
		t.Fatalf("%d entries with two calls staged, want 2", n)
	}
	if _, done, err := first.WaitWithin(time.Millisecond); done || err != nil {
		t.Fatalf("bounded wait on a mute peer: done=%v err=%v, want the call left in flight", done, err)
	}
	if n := inFlight(); n != 2 {
		t.Fatalf("%d entries after a bounded wait gave up, want 2", n)
	}
	if _, err := first.Wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("first of two staged calls: %v, want ErrTimeout", err)
	}
	if _, err := second.Wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("second of two staged calls: %v, want ErrTimeout", err)
	}
	if n := inFlight(); n != 0 {
		t.Fatalf("%d entries left after two staged calls expired", n)
	}

	// A hedge: the mute primary loses to a live replica and is dropped, not
	// waited for; what the primary says afterwards under the dropped id is
	// discarded, and the next reply still finds its call.
	_, addr := startServer(t)
	live, err := Dial(addr, "iris", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	loser := c.StartQueryTraced("gold", nil, 3, 5*time.Second, telemetry.TraceContext{})
	res, err := First(loser, live.StartQueryTraced("gold", nil, 3, 5*time.Second, telemetry.TraceContext{}))
	if err != nil || res.From != "museum-tcp" || len(res.Items) == 0 {
		t.Fatalf("hedged query: %+v, %v, want the live replica's answer", res, err)
	}
	if n := inFlight(); n != 0 {
		t.Fatalf("%d entries left by a hedge's loser", n)
	}
	next := c.StartQueryTraced("ring", nil, 3, 5*time.Second, telemetry.TraceContext{})
	for _, id := range []string{loser.id, next.id} {
		late := wire.QueryResult{QueryID: id, From: "mute"}
		if err := wire.WriteFrame(conn, wire.KindQueryResult, late.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := next.Wait(); err != nil || res.QueryID != next.id {
		t.Fatalf("call after a late reply to a dropped id: %+v, %v", res, err)
	}

	waiter := c.StartQuery(wire.Query{Text: "ring"}, 5*time.Second)
	// A call caught between begin and send when the connection breaks: it is
	// registered, so the dying read loop closes its channel too.
	caught := c.begin(5 * time.Second)
	if n := inFlight(); n != 2 {
		t.Fatalf("%d entries with one call waiting and one registered, want 2", n)
	}
	conn.Close() // the read loop dies; the waiter must not sit out its 5 s
	if _, err := waiter.Wait(); err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("waiter on a dead connection: %v, want the read error", err)
	}
	if n := inFlight(); n != 0 {
		t.Fatalf("%d entries left after the read loop died", n)
	}

	c.Close()
	if _, err := c.Query("gold", nil, 3, time.Second); err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("query on a closed client: %v, want the stage error", err)
	}
	if n := inFlight(); n != 0 {
		t.Fatalf("%d entries left after a failed stage", n)
	}
	// Its stage fails on a channel the read loop already closed: the call ends
	// with the stage error, and the channel is not closed a second time.
	caught.send(&wire.Query{Text: "ring"})
	if _, err := caught.Wait(); err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("stage after the read loop died: %v, want the stage error", err)
	}
}
