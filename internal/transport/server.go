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
	// Logf, when set, overrides Log for every message (test hook).
	Logf func(format string, args ...any)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]*connState
	subs   map[string]*subscription // subID -> sub
	closed bool
	wg     sync.WaitGroup

	// served/delivered are incremented from per-connection goroutines and
	// read by operators mid-flight (shutdown logging, debug endpoints) —
	// atomics, not bare fields, or -race rightly objects.
	served    atomic.Uint64
	delivered atomic.Uint64
	telPtr    atomic.Pointer[serverTel]

	// Coalescer counters for connections already torn down; WireStats adds
	// the live ones on top.
	retiredFrames  atomic.Uint64
	retiredFlushes atomic.Uint64
}

// serverTel caches resolved telemetry instruments for the request path.
// reg is kept so serveQuery can continue an inbound distributed trace.
type serverTel struct {
	queries, feedDelivered, conns, readErrors *telemetry.Counter
	queryLat                                  *telemetry.Histogram
	reg                                       *telemetry.Registry
}

// SetTelemetry registers the server's instruments in reg. Safe to call at
// any time, including while serving. Nil reg disables instrumentation.
func (s *Server) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.telPtr.Store(nil)
		return
	}
	s.telPtr.Store(&serverTel{
		queries:       reg.Counter("transport.server.queries"),
		feedDelivered: reg.Counter("transport.server.feed.delivered"),
		conns:         reg.Counter("transport.server.conns"),
		readErrors:    reg.Counter("transport.server.read.errors"),
		queryLat:      reg.Histogram("transport.server.query"),
		reg:           reg,
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

// Delivered returns how many feed items have been pushed to subscribers.
func (s *Server) Delivered() uint64 { return s.delivered.Load() }

type connState struct {
	conn net.Conn
	out  *coalescer
	// items is the reply scratch serveQuery builds QueryResult.Items in:
	// one connection serves its queries one at a time, and stage encodes
	// the reply before it returns, so the backing array is free again by
	// the next query.
	items []wire.ResultItem
	// query is serveQuery's decode target, kept for its assumed-figure arrays.
	query wire.Query
}

type subscription struct {
	sub  wire.Subscribe
	conn *connState
}

// NewServer wraps a store.
func NewServer(nodeID string, store *docstore.Store) *Server {
	return &Server{
		NodeID: nodeID,
		Store:  store,
		Log:    telemetry.DefaultLogger(),
		conns:  make(map[net.Conn]*connState),
		subs:   make(map[string]*subscription),
	}
}

// warnf routes a warning through Logf when set (tests), the leveled logger
// otherwise.
func (s *Server) warnf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	s.Log.Warnf(format, args...)
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
		cs := &connState{conn: conn, out: newCoalescer(conn)}
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
	for id, sub := range s.subs {
		if sub.conn == cs {
			delete(s.subs, id)
		}
	}
	s.mu.Unlock()
	// Bound the drain like Client.Close does: the read side already
	// failed, and a peer that stopped reading must not wedge teardown.
	// During Server.Close the conn is already closed — the drain below
	// is a no-op then, so a failed arm is only worth a warning when the
	// conn was live.
	if err := cs.conn.SetWriteDeadline(time.Now().Add(2 * time.Second)); err != nil && !errors.Is(err, net.ErrClosed) {
		s.warnf("transport: arming teardown deadline: %v", err)
	}
	//lint:allow checkederr the conn is being dropped because it already failed; the drain error repeats that failure
	cs.out.close()
	st := cs.out.stats()
	s.retiredFrames.Add(st.Frames)
	s.retiredFlushes.Add(st.Flushes)
	cs.conn.Close()
}

// WireStats aggregates coalescer counters across every connection the
// server has carried, live and retired.
func (s *Server) WireStats() WireStats {
	st := WireStats{
		Frames:  s.retiredFrames.Load(),
		Flushes: s.retiredFlushes.Load(),
	}
	s.mu.Lock()
	for _, cs := range s.conns {
		c := cs.out.stats()
		st.Frames += c.Frames
		st.Flushes += c.Flushes
	}
	s.mu.Unlock()
	return st
}

func (s *Server) handle(cs *connState) {
	defer s.dropConn(cs)
	fr := wire.NewFrameReader(bufio.NewReader(cs.conn))
	for {
		f, err := fr.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.tel().readErrors.Inc()
				s.warnf("transport: %s: read: %v", cs.conn.RemoteAddr(), err)
			}
			return
		}
		switch f.Kind {
		case wire.KindHello:
			hello, err := wire.UnmarshalHello(f.Payload)
			if err != nil {
				s.warnf("transport: bad hello: %v", err)
				return
			}
			ack := wire.Hello{
				NodeID: s.NodeID, Topics: nil, Capacity: int64(s.Store.Len()),
				ShardStart: s.ShardStart, ShardEnd: s.ShardEnd,
			}
			if err := cs.out.stage(wire.KindHelloAck, &ack); err != nil {
				return
			}
			_ = hello
		case wire.KindPing:
			if err := cs.out.stageBytes(wire.KindPong, f.Payload); err != nil {
				return
			}
		case wire.KindQuery:
			s.serveQuery(cs, f.Payload)
		case wire.KindSubscribe:
			sub, err := wire.UnmarshalSubscribe(f.Payload)
			if err != nil {
				s.warnf("transport: bad subscribe: %v", err)
				continue
			}
			s.mu.Lock()
			s.subs[sub.SubID] = &subscription{sub: sub, conn: cs}
			s.mu.Unlock()
		case wire.KindUnsubscribe:
			s.mu.Lock()
			delete(s.subs, string(f.Payload))
			s.mu.Unlock()
		default:
			s.warnf("transport: unexpected frame %v", f.Kind)
		}
	}
}

func (s *Server) serveQuery(cs *connState, payload []byte) {
	// Shared-string decode: payload is the FrameReader's pooled buffer,
	// valid only for this call; the shared backing is an owned copy.
	wq := &cs.query
	if err := wire.DecodeQueryShared(payload, wq); err != nil {
		s.warnf("transport: bad query: %v", err)
		return
	}
	tel := s.tel()
	if err := checkQuery(wq); err != nil {
		// Refused before it reaches the store; the connection stays usable.
		tel.readErrors.Inc()
		s.warnf("transport: bad query: %v", err)
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
		// Execute makes several store calls, each loading its own snapshot;
		// all of them are at least as new as the epoch read before the first.
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
	// Finish before staging: an idle link writes the reply inline, and a
	// trace must be retrievable by ID once its reply is observable (the
	// exemplar → /debug/trace?id= link depends on it).
	tr.Finish()
	err := cs.out.stage(wire.KindQueryResult, &resp)
	cs.items = resp.Items[:0]
	if err != nil {
		s.warnf("transport: send result: %v", err)
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

// PublishFeed pushes a new document to matching subscribers (callers invoke
// it after ingesting content).
func (s *Server) PublishFeed(d *docstore.Document, seq uint64) {
	item := wire.FeedItem{
		FeedID: s.NodeID, DocID: d.ID, Source: s.NodeID,
		Text: d.Title + " " + d.Text, Concept: d.Concept, Seq: seq,
	}
	tokens := feature.Tokenize(item.Text)
	tokenSet := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		tokenSet[t] = true
	}
	s.mu.Lock()
	var targets []*connState
	for _, sub := range s.subs {
		if matchesSub(sub.sub, tokenSet, d.Concept) {
			targets = append(targets, sub.conn)
		}
	}
	s.mu.Unlock()
	for _, cs := range targets {
		// Counted after staging, unlike serveQuery's trace: delivered means
		// "staged without error", and nothing looks a received item up by it.
		if err := cs.out.stage(wire.KindFeedItem, &item); err == nil {
			s.delivered.Add(1)
			s.tel().feedDelivered.Inc()
		}
	}
}

func matchesSub(sub wire.Subscribe, tokenSet map[string]bool, concept feature.Vector) bool {
	for _, t := range sub.Terms {
		for _, tok := range feature.Tokenize(t) {
			if !tokenSet[tok] {
				return false
			}
		}
	}
	if len(sub.Concept) > 0 {
		if len(concept) == 0 {
			return false
		}
		if feature.Cosine(feature.Vector(sub.Concept), concept) < sub.Threshold {
			return false
		}
	}
	return true
}
