package transport

import (
	"bufio"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

// allocsPer returns process-wide mallocs per call of op by runtime.MemStats
// delta around n calls, after n first calls that fill pools and caches.
// Unlike testing.AllocsPerRun the mean is not floored: one malloc every few
// calls must show. Other goroutines (a connection winding down, the runtime)
// can only add to a window, never subtract, so the smaller of two windows is
// the reading.
func allocsPer(n int, op func()) float64 {
	window := func() uint64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			op()
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	window()
	return float64(min(window(), window())) / float64(n)
}

// scatterQuery is the frame the zero-alloc wire path was built for: the
// text, a routing ID, and the global-statistics tail the shard router
// attaches.
var scatterQuery = wire.Query{
	ID: "q1", Text: "byzantine gold filigree ring", TopK: 10,
	GlobalDocs: 131072,
	StatsTerms: []string{"byzantine", "gold", "filigree", "ring"},
	StatsDF:    []uint64{120, 3400, 80, 2100},
}

// repeatReader serves the same encoded frame forever.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// TestFrameCodecAllocs pins the codec both ends of a connection run on:
// staging a frame into a reused buffer with wire.AppendFrame, as appendWrite
// does, and reading a stream of frames through one pooled wire.FrameReader,
// as every read loop does, each make no allocation per frame.
func TestFrameCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on allocation-free paths")
	}
	const frames = 8192
	var stage []byte
	if n := allocsPer(frames, func() { stage = wire.AppendFrame(stage[:0], wire.KindQuery, &scatterQuery) }); n != 0 {
		t.Fatalf("encode into a reused buffer allocates: %v allocs/frame", n)
	}
	fr := wire.NewFrameReader(bufio.NewReader(&repeatReader{frame: stage}))
	if n := allocsPer(frames, func() {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("pooled decode allocates: %v allocs/frame", n)
	}
}

// TestQueryRoundTripAllocs holds one warm query round trip over loopback TCP
// to an allocation count. The count is process-wide, so it covers both
// sides — client bookkeeping, both codecs and the server's search; the
// allocating stack the zero-alloc path replaced made 71.9, and the bar is
// under half of that. Every frame goes out in one Write of its own.
func TestQueryRoundTripAllocs(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr, "allocs", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wireFrames := func() (frames, flushes uint64) {
		s, cl := srv.WireStats(), c.WireStats()
		return s.Frames + cl.Frames, s.Flushes + cl.Flushes
	}
	f0, fl0 := wireFrames()
	n := allocsPer(256, func() {
		if _, err := c.Query(scatterQuery.Text, nil, int(scatterQuery.TopK), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	})
	f1, fl1 := wireFrames()
	if perFrame := float64(fl1-fl0) / float64(max(f1-f0, 1)); perFrame <= 0 || perFrame > 1 {
		t.Fatalf("writes per frame = %v, want in (0, 1]", perFrame)
	}
	if !raceEnabled && n > 35 {
		t.Fatalf("round trip allocates %v/op, want <= 35", n)
	}
	t.Logf("%.2f allocations per round trip", n)
}

// TestFrameCountedBeforeReplyObserved pins the bookkeeping-before-reply
// order: the moment Client.Query returns, the server's count already holds
// the reply that was read, and every frame on either side was one Write.
// appendWrite counts a frame before writing it; counted after, the reply can
// overtake the count. A scheduling race, so `make race-core` runs it many
// times.
func TestFrameCountedBeforeReplyObserved(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr, "ordering", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s0, c0 := srv.WireStats().Frames, c.WireStats().Frames
	for i := uint64(1); i <= 256; i++ {
		if _, err := c.Query("gold ring", nil, 5, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		s, cl := srv.WireStats(), c.WireStats()
		if s.Frames != s0+i || cl.Frames != c0+i {
			t.Fatalf("query %d: server counted %d replies, client %d queries", i, s.Frames-s0, cl.Frames-c0)
		}
		if s.Flushes != s.Frames || cl.Flushes != cl.Frames {
			t.Fatalf("query %d: server %d writes for %d frames, client %d for %d", i, s.Flushes, s.Frames, cl.Flushes, cl.Frames)
		}
	}
}
