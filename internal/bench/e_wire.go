package bench

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"repro/internal/docstore"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// E27WirePath counts what the zero-alloc batched wire path allocates and
// how many syscalls it issues, in two phases:
//
// Codec micro. Single-pass AppendFrame staging of one scatter-shaped Query
// frame into a reused buffer, and decoding a frame stream through the
// pooled FrameReader: allocs/frame, both directions, must be zero.
//
// TCP round-trip. One warm query round-trip over real loopback TCP through
// the coalesced transport stack. allocs/op is process-wide, so it counts
// both sides — client bookkeeping, both codecs and the server's search; the
// PR-9 stack it replaced read 71.9, and the bar is to stay under half of
// that. syscalls/frame comes from the coalescer's own Frames/Flushes
// counters and can never exceed one; multi-frame flushes behind a blocked
// Write are pinned exactly by transport.TestCoalescerBatchesWhileWriteInFlight.
func E27WirePath(seed int64, scale float64) *Result {
	nFrames := scaleInt(131072, scale, 8192)
	nAsks := scaleInt(2048, scale, 256)

	table := metrics.NewTable("E27: zero-alloc batched wire path (codec micro + TCP round-trip)",
		"stage", "ops", "allocs/op", "syscalls/frame")
	headline := map[string]float64{}

	// --- Codec micro ---
	// A scatter-shaped query message: the text, a routing ID, and the
	// global-statistics tail the shard router attaches — the hot frame the
	// coalesced wire path was built for.
	q := wire.Query{
		ID: "q1", Text: "byzantine gold filigree ring", TopK: 10,
		GlobalDocs: 131072,
		StatsTerms: []string{"byzantine", "gold", "filigree", "ring"},
		StatsDF:    []uint64{120, 3400, 80, 2100},
	}
	var stage []byte
	headline["encode_allocs"] = allocsPer(nFrames, func() {
		stage = wire.AppendFrame(stage[:0], wire.KindQuery, &q)
	})
	fr := wire.NewFrameReader(bufio.NewReader(&e27RepeatReader{frame: stage}))
	headline["decode_allocs"] = allocsPer(nFrames, func() {
		if _, err := fr.Next(); err != nil {
			panic(err)
		}
	})
	table.AddRow("encode", nFrames, headline["encode_allocs"], "-")
	table.AddRow("decode", nFrames, headline["decode_allocs"], "-")

	// --- TCP round-trip --- over a tiny corpus: the phase counts the wire's
	// allocations, not the search's.
	st, err := docstore.Open(docstore.Options{ConceptDim: 8, Seed: seed})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	for i := 0; i < 20; i++ {
		if err := st.Put(&docstore.Document{
			ID: fmt.Sprintf("d%02d", i), Title: "byzantine gold ring",
			Text: "byzantine filigree ancient jewelry gold ring", CreatedAt: int64(i), Provenance: "e27",
		}); err != nil {
			panic(err)
		}
	}
	srv := transport.NewServer("e27-srv", st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := transport.Dial(ln.Addr().String(), "e27-bench", 2*time.Second)
	if err != nil {
		panic(err)
	}
	defer c.Close()
	wireFrames := func() (frames, flushes uint64) {
		s, cl := srv.WireStats(), c.WireStats()
		return s.Frames + cl.Frames, s.Flushes + cl.Flushes
	}
	f0, fl0 := wireFrames()
	headline["rt_allocs"] = allocsPer(nAsks, func() {
		if _, err := c.Query(q.Text, nil, int(q.TopK), 5*time.Second); err != nil {
			panic(err)
		}
	})
	f1, fl1 := wireFrames()
	headline["rt_syscalls_per_frame"] = float64(fl1-fl0) / float64(max(f1-f0, 1))
	table.AddRow("roundtrip", nAsks, headline["rt_allocs"], headline["rt_syscalls_per_frame"])

	return &Result{ID: "E27", Table: table, Headline: headline}
}

// e27RepeatReader serves the same encoded frame forever: the decode micro
// phase's infinite stream.
type e27RepeatReader struct {
	frame []byte
	off   int
}

func (r *e27RepeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}
