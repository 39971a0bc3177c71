// Package transport runs agora nodes over real TCP sockets using the wire
// codec — the deployment path proving the protocols work outside the
// simulator. cmd/agora-node serves a document store; cmd/agora-query is the
// matching consumer CLI.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Server exposes one docstore as an agora provider on TCP.
type Server struct {
	NodeID string
	Store  *docstore.Store
	// ShardStart/ShardEnd advertise the shard key range this node's corpus
	// partition covers (announced in the HelloAck). Both zero = unsharded.
	ShardStart uint64
	ShardEnd   uint64
	// Log is the leveled logger for server events (read errors, malformed
	// frames). Defaults to telemetry.DefaultLogger(); nil silences.
	Log *telemetry.Logger

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]*connState
	closed bool
	wg     sync.WaitGroup

	// served and frames are incremented from per-connection goroutines and
	// read by operators mid-flight (shutdown logging, debug endpoints) —
	// atomics, not bare fields, or -race rightly objects.
	served atomic.Uint64
	frames atomic.Uint64
	telPtr atomic.Pointer[serverTel]
}

// serverTel caches resolved telemetry instruments for the request path.
// reg is kept so serveQuery can continue an inbound distributed trace.
type serverTel struct {
	queries, conns, readErrors *telemetry.Counter
	queryLat                   *telemetry.Histogram
	reg                        *telemetry.Registry
}

// SetTelemetry registers the server's instruments in reg. Safe to call at
// any time, including while serving. Nil reg disables instrumentation.
func (s *Server) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.telPtr.Store(nil)
		return
	}
	s.telPtr.Store(&serverTel{
		queries:    reg.Counter("transport.server.queries"),
		conns:      reg.Counter("transport.server.conns"),
		readErrors: reg.Counter("transport.server.read.errors"),
		queryLat:   reg.Histogram("transport.server.query"),
		reg:        reg,
	})
}

// tel returns the current instrument set; the zero value (all nil
// instruments, every call a no-op) when telemetry is disabled.
func (s *Server) tel() serverTel {
	if t := s.telPtr.Load(); t != nil {
		return *t
	}
	return serverTel{}
}

// Served returns how many queries the server has answered; a drift reply answers none.
func (s *Server) Served() uint64 { return s.served.Load() }

// WireStats counts the frames a connection or a server wrote and the Write
// calls that carried them. Every frame is written with one Write of its own,
// so Flushes equals Frames.
type WireStats struct {
	Frames  uint64
	Flushes uint64
}

// WireStats counts every frame the server has written, on every connection.
func (s *Server) WireStats() WireStats {
	n := s.frames.Load()
	return WireStats{Frames: n, Flushes: n}
}

// connState is one connection, owned by its handler goroutine: every frame
// the server writes to it is a reply the handler writes, so nothing here is
// locked.
type connState struct {
	conn net.Conn
	w    io.Writer // conn, or a buffer when a test serves without a socket
	buf  []byte    // the frame being written, reused for the next one
	// items is the reply scratch serveQuery builds QueryResult.Items in:
	// one connection serves its queries one at a time, and the reply is
	// written before the next query is read, so the backing array is free
	// again by then.
	items []wire.ResultItem
	// query is serveQuery's decode target, kept for its assumed-figure arrays.
	query wire.Query
}

// writeFrame writes one frame to cs with one Write.
func (s *Server) writeFrame(cs *connState, kind wire.Kind, m wire.Appender) error {
	var err error
	cs.buf, err = appendWrite(cs.w, cs.buf, &s.frames, kind, m)
	return err
}

// maxFrameBuf bounds the frame buffer a connection keeps between frames: one
// that grew past it (a large result) goes back to the allocator rather than
// staying pinned for the life of the connection.
const maxFrameBuf = 1 << 20

// appendWrite encodes one frame into buf's backing array, writes it to w with
// one Write and returns the buffer for the next frame. The frame is counted
// in frames before the Write: once Write returns, the peer may already be
// acting on the frame, and whatever it reads next — this count included —
// must account for it.
func appendWrite(w io.Writer, buf []byte, frames *atomic.Uint64, kind wire.Kind, m wire.Appender) ([]byte, error) {
	buf = wire.AppendFrame(buf[:0], kind, m)
	frames.Add(1)
	_, err := w.Write(buf)
	if cap(buf) > maxFrameBuf {
		buf = nil
	}
	return buf, err
}

// rawPayload is a frame payload that is already bytes: a ping's, and the
// pong that echoes it.
type rawPayload []byte

// AppendTo appends the payload to dst.
func (p rawPayload) AppendTo(dst []byte) []byte { return append(dst, p...) }

// NewServer wraps a store.
func NewServer(nodeID string, store *docstore.Store) *Server {
	return &Server{
		NodeID: nodeID,
		Store:  store,
		Log:    telemetry.DefaultLogger(),
		conns:  make(map[net.Conn]*connState),
	}
}

// Serve accepts connections on ln until Close. It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("transport: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		cs := &connState{conn: conn, w: conn}
		s.tel().conns.Inc()
		s.mu.Lock()
		s.conns[conn] = cs
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(cs)
		}()
	}
}

// Close stops the server and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) dropConn(cs *connState) {
	s.mu.Lock()
	delete(s.conns, cs.conn)
	s.mu.Unlock()
	cs.conn.Close()
}

func (s *Server) handle(cs *connState) {
	defer s.dropConn(cs)
	fr := wire.NewFrameReader(bufio.NewReader(cs.conn))
	for {
		f, err := fr.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.tel().readErrors.Inc()
				s.Log.Warnf("transport: %s: read: %v", cs.conn.RemoteAddr(), err)
			}
			return
		}
		switch f.Kind {
		case wire.KindHello:
			if _, err := wire.UnmarshalHello(f.Payload); err != nil {
				s.Log.Warnf("transport: bad hello: %v", err)
				return
			}
			ack := wire.Hello{
				NodeID: s.NodeID, Topics: nil, Capacity: int64(s.Store.Len()),
				ShardStart: s.ShardStart, ShardEnd: s.ShardEnd,
			}
			if err := s.writeFrame(cs, wire.KindHelloAck, &ack); err != nil {
				return
			}
		case wire.KindPing:
			if err := s.writeFrame(cs, wire.KindPong, rawPayload(f.Payload)); err != nil {
				return
			}
		case wire.KindQuery:
			s.serveQuery(cs, f.Payload)
		default:
			s.Log.Warnf("transport: unexpected frame %v", f.Kind)
		}
	}
}

func (s *Server) serveQuery(cs *connState, payload []byte) {
	// Shared-string decode: payload is the FrameReader's pooled buffer,
	// valid only for this call; the shared backing is an owned copy.
	wq := &cs.query
	if err := wire.DecodeQueryShared(payload, wq); err != nil {
		s.Log.Warnf("transport: bad query: %v", err)
		return
	}
	tel := s.tel()
	if err := checkQuery(wq); err != nil {
		// Refused before it reaches the store; the connection stays usable.
		tel.readErrors.Inc()
		s.Log.Warnf("transport: bad query: %v", err)
		return
	}
	start := time.Now()
	// Continue the caller's distributed trace (fresh local trace when the
	// query carried no context). Everything no-ops if telemetry is off.
	tr := tel.reg.StartTraceFrom(telemetry.TraceContext{
		TraceID: telemetry.TraceID(wq.TraceID),
		SpanID:  telemetry.SpanID(wq.SpanID),
	}, "serve", wq.Text)
	resp := wire.QueryResult{
		QueryID: wq.ID, From: s.NodeID,
		TraceID: uint64(tr.ID()), Items: cs.items[:0],
	}
	if wq.GlobalDocs > 0 || wq.Assumed {
		// Scatter path: a shard router supplied corpus-wide statistics, so
		// score the plain-text query directly against the store under global
		// idf weights (the AQL/fusion pipeline is a single-node concern). A
		// router that holds no figures yet sums to zero documents; what it
		// assumed of this shard is checked all the same.
		topK := int(wq.TopK)
		if topK <= 0 {
			topK = 10
		}
		gs := docstore.GlobalStats{TotalDocs: wq.GlobalDocs, Terms: wq.StatsTerms, DF: wq.StatsDF}
		if wq.Assumed {
			gs.Assumed = &docstore.Assumed{Docs: wq.AssumedDocs, DF: wq.AssumedDF, MaxRatio: wq.AssumedMaxRatio}
		}
		sp := tr.Span("search-global", wq.ID)
		// The epoch is the searched snapshot's own, the state the answer names.
		hits, epoch, ok := s.Store.SearchTextAssuming(wq.Text, topK, &gs)
		resp.Epoch = epoch
		for _, h := range hits {
			resp.Items = append(resp.Items, wire.ResultItem{
				DocID: h.Doc.ID, Source: s.NodeID, Score: h.Score, Snippet: h.Doc.Snippet(80),
			})
		}
		if ok {
			sp.End()
		} else {
			// The store is not the one the router summed: say what it is now
			// (figures and epoch of one snapshot) and answer nothing.
			sp.Fail(errDrift)
			resp.Drift = true
			resp.Docs, resp.Epoch, resp.DF, resp.MaxRatio = s.figures(wq.StatsTerms)
		}
	} else {
		var q *query.Query
		if wq.Text != "" && wq.Text[0] == 'F' || len(wq.Text) > 5 && wq.Text[:5] == "find " {
			// Allow full AQL in the text field.
			if parsed, perr := query.Parse(wq.Text); perr == nil {
				q = parsed
			}
		}
		if q == nil {
			q = &query.Query{Text: wq.Text, TopK: int(wq.TopK)}
			if q.TopK <= 0 {
				q.TopK = 10
			}
		}
		sp := tr.Span("search", wq.ID)
		// Execute makes one store call, which loads its own snapshot: the
		// epoch read before it can be older than the state searched.
		resp.Epoch = s.Store.Epoch()
		results := query.Execute(s.Store, q, feature.Vector(wq.Concept), time.Now().UnixNano())
		sp.End()
		for _, r := range results {
			resp.Items = append(resp.Items, wire.ResultItem{
				DocID: r.Doc.ID, Source: s.NodeID, Score: r.Score, Snippet: r.Doc.Snippet(80),
			})
		}
	}
	resp.Elapsed = time.Since(start).Seconds()
	if !resp.Drift {
		s.served.Add(1)
		tel.queries.Inc()
	}
	tel.queryLat.ObserveExemplar(time.Since(start), tr.ID())
	// Finish before writing: a trace must be retrievable by ID once its
	// reply is observable (the exemplar → /debug/trace?id= link depends on
	// it).
	tr.Finish()
	err := s.writeFrame(cs, wire.KindQueryResult, &resp)
	cs.items = resp.Items[:0]
	if err != nil {
		s.Log.Warnf("transport: send result: %v", err)
		// The serve trace is already retained, so the lost reply becomes its
		// own always-retained error snapshot under the same trace ID.
		lost := tel.reg.StartTraceFrom(tr.Context(), "send-result", wq.Text)
		lost.Fail(err)
		lost.Finish()
	}
}

// errDrift tags the search span of a query refused for drift.
var errDrift = errors.New("drift")

// figures is the store's TermStats as the wire carries them: figures and
// epoch of one snapshot, the per-term ones in parallel arrays.
func (s *Server) figures(terms []string) (docs, epoch uint64, df []uint64, maxRatio []float64) {
	docs, epoch, stats := s.Store.TermStats(terms)
	df, maxRatio = make([]uint64, len(stats)), make([]float64, len(stats))
	for i, st := range stats {
		df[i], maxRatio[i] = st.DF, st.MaxRatio
	}
	return docs, epoch, df, maxRatio
}

// checkQuery refuses a decoded query whose parallel statistics arrays
// disagree in length: each frequency — global, and assumed of this shard —
// and each assumed ratio belongs to the term at its index.
func checkQuery(wq *wire.Query) error {
	if len(wq.StatsDF) != len(wq.StatsTerms) {
		return fmt.Errorf("query %q carries %d stats terms but %d frequencies", wq.ID, len(wq.StatsTerms), len(wq.StatsDF))
	}
	if wq.Assumed && (len(wq.AssumedDF) != len(wq.StatsTerms) || len(wq.AssumedMaxRatio) != len(wq.StatsTerms)) {
		return fmt.Errorf("query %q carries %d stats terms but %d/%d assumed figures", wq.ID, len(wq.StatsTerms), len(wq.AssumedDF), len(wq.AssumedMaxRatio))
	}
	return nil
}
