package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/feature"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Client is a consumer connection to one agora node over TCP. All sends
// ride a per-connection write coalescer (see coalescer): concurrent
// queries, stats requests, and hedges staged while a Write is in flight
// leave in one batched syscall.
type Client struct {
	conn   net.Conn
	r      *bufio.Reader
	out    *coalescer
	mu     sync.Mutex
	nextID uint64

	// queries and stats demux the two request/reply exchanges by request id.
	queries pending[wire.QueryResult]
	stats   pending[wire.TermStatsResp]
	// pongs signals pong arrival; the payload echoes the ping and carries
	// no information, so only the event crosses (the frame payload aliases
	// the demux loop's pooled read buffer and must not be retained).
	pongs chan struct{}
	// Feed delivers pushed feed items; buffered, drops when full.
	Feed chan wire.FeedItem
	// RemoteID is the server's node id from the handshake.
	RemoteID string
	// RemoteStart/RemoteEnd is the shard key range the server announced in
	// its handshake ack (both zero when the server is unsharded).
	RemoteStart uint64
	RemoteEnd   uint64
	closed      bool
	readErr     error
	done        chan struct{}
	tel         clientTel
}

// clientTel caches resolved telemetry instruments for client round-trips.
type clientTel struct {
	queries, timeouts, feedDropped *telemetry.Counter
	queryRTT, pingRTT              *telemetry.Histogram
}

func newClientTel(reg *telemetry.Registry) clientTel {
	if reg == nil {
		return clientTel{}
	}
	return clientTel{
		queries:     reg.Counter("transport.client.queries"),
		timeouts:    reg.Counter("transport.client.timeouts"),
		feedDropped: reg.Counter("transport.client.feed.dropped"),
		queryRTT:    reg.Histogram("transport.client.query"),
		pingRTT:     reg.Histogram("transport.client.ping"),
	}
}

// Dial connects and performs the hello handshake.
func Dial(addr, clientID string, timeout time.Duration) (*Client, error) {
	return DialWithTelemetry(addr, clientID, timeout, nil)
}

// DialWithTelemetry is Dial with client round-trip instruments (query/ping
// RTT histograms, timeout and feed-drop counters) registered in reg before
// the demux loop starts, keeping the accounting race-free.
func DialWithTelemetry(addr, clientID string, timeout time.Duration, reg *telemetry.Registry) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:    conn,
		r:       bufio.NewReader(conn),
		out:     newCoalescer(conn),
		queries: pending[wire.QueryResult]{},
		stats:   pending[wire.TermStatsResp]{},
		pongs:   make(chan struct{}, 4),
		Feed:    make(chan wire.FeedItem, 64),
		done:    make(chan struct{}),
		tel:     newClientTel(reg),
	}
	// abort tears down a half-built connection; the handshake error being
	// returned to the caller is the failure, so teardown errors are
	// secondary.
	abort := func() {
		//lint:allow checkederr dial returns the handshake error; drain errors on the aborted connection are secondary
		c.out.close()
		conn.Close()
	}
	hello := wire.Hello{NodeID: clientID}
	if err := c.out.stage(wire.KindHello, &hello); err != nil {
		abort()
		return nil, err
	}
	// Synchronous ack before starting the demux loop.
	if timeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			abort()
			return nil, fmt.Errorf("transport: arming handshake deadline: %w", err)
		}
	}
	f, err := wire.ReadFrame(c.r)
	if err != nil || f.Kind != wire.KindHelloAck {
		abort()
		return nil, fmt.Errorf("transport: handshake failed: %v", err)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		abort()
		return nil, fmt.Errorf("transport: clearing handshake deadline: %w", err)
	}
	ack, err := wire.UnmarshalHello(f.Payload)
	if err != nil {
		abort()
		return nil, err
	}
	c.RemoteID = ack.NodeID
	c.RemoteStart = ack.ShardStart
	c.RemoteEnd = ack.ShardEnd
	go c.readLoop() //lint:allow goroutine connection demux loop; Close joins it via <-c.done
	return c, nil
}

// WireStats reports frames staged and Write syscalls issued on this
// connection's coalesced send path.
func (c *Client) WireStats() WireStats { return c.out.stats() }

func (c *Client) readLoop() {
	defer close(c.done)
	fr := wire.NewFrameReader(c.r)
	for {
		f, err := fr.Next()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			c.queries.failAll()
			c.stats.failAll()
			c.mu.Unlock()
			close(c.Feed)
			return
		}
		switch f.Kind {
		case wire.KindQueryResult:
			// Shared-string decode: f.Payload is the FrameReader's pooled
			// buffer; the decoded result owns its (single) string backing.
			res, err := wire.UnmarshalQueryResultShared(f.Payload)
			if err != nil {
				continue
			}
			resolve(c, c.queries, res.QueryID, res)
		case wire.KindFeedItem:
			item, err := wire.UnmarshalFeedItemShared(f.Payload)
			if err != nil {
				continue
			}
			select {
			case c.Feed <- item:
			default: // drop on backpressure
				c.tel.feedDropped.Inc()
			}
		case wire.KindTermStatsResult:
			resp, err := wire.UnmarshalTermStatsResp(f.Payload)
			if err != nil {
				continue
			}
			resolve(c, c.stats, resp.ID, resp)
		case wire.KindPong:
			select {
			case c.pongs <- struct{}{}:
			default:
			}
		}
	}
}

// ErrTimeout reports an expired client-side wait.
var ErrTimeout = errors.New("transport: timeout")

// timerPool recycles the per-wait timeout timers: every roundtrip arms
// one, and under load that is one avoidable allocation per query. Timers
// are returned stopped and drained, so Reset is safe.
var timerPool sync.Pool

func acquireTimer(d time.Duration) *time.Timer {
	if v := timerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C: // fired while we held it: drain so Reset starts clean
		default:
		}
	}
	timerPool.Put(t)
}

// newID mints a connection-unique request id; the caller holds c.mu.
// strconv instead of fmt keeps it to the one unavoidable allocation.
func (c *Client) newID(prefix byte) string {
	c.nextID++
	var buf [24]byte
	b := append(buf[:0], prefix)
	return string(strconv.AppendUint(b, c.nextID, 10))
}

// Ping round-trips a ping.
func (c *Client) Ping(timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	if err := c.out.stageBytes(wire.KindPing, []byte("ping")); err != nil {
		return 0, err
	}
	t := acquireTimer(timeout)
	defer releaseTimer(t)
	select {
	case <-c.pongs:
		rtt := time.Since(start)
		c.tel.pingRTT.Observe(rtt)
		return rtt, nil
	case <-t.C:
		c.tel.timeouts.Inc()
		return 0, ErrTimeout
	case <-c.done:
		return 0, c.err()
	}
}

func (c *Client) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return errors.New("transport: connection closed")
}

// Query sends a query (free text or full AQL in text) and waits for the
// result.
func (c *Client) Query(text string, concept feature.Vector, topK int, timeout time.Duration) (wire.QueryResult, error) {
	return c.QueryTraced(text, concept, topK, timeout, telemetry.TraceContext{})
}

// QueryTraced is Query with distributed-trace injection: tc (usually the
// Context() of the span covering this call) rides the wire so the server
// continues the caller's trace; the returned result echoes the trace ID
// the server served under. A zero tc sends an untraced query.
func (c *Client) QueryTraced(text string, concept feature.Vector, topK int, timeout time.Duration, tc telemetry.TraceContext) (wire.QueryResult, error) {
	q := wire.Query{
		Text: text, Concept: concept, TopK: uint32(topK),
		TraceID: uint64(tc.TraceID), SpanID: uint64(tc.SpanID),
	}
	return c.roundtripQuery(q, timeout)
}

// QueryGlobal sends a query carrying router-supplied corpus-wide statistics
// (see docstore.GlobalStats): the server scores it with global idf weights
// instead of its local ones, which is what makes per-shard results merge
// bit-identically to a single node holding the whole corpus. statsTerms and
// statsDF are parallel; globalDocs must be > 0.
func (c *Client) QueryGlobal(text string, topK int, timeout time.Duration, tc telemetry.TraceContext, globalDocs uint64, statsTerms []string, statsDF []uint64) (wire.QueryResult, error) {
	q := wire.Query{
		Text: text, TopK: uint32(topK),
		TraceID: uint64(tc.TraceID), SpanID: uint64(tc.SpanID),
		GlobalDocs: globalDocs, StatsTerms: statsTerms, StatsDF: statsDF,
	}
	return c.roundtripQuery(q, timeout)
}

func (c *Client) roundtripQuery(q wire.Query, timeout time.Duration) (wire.QueryResult, error) {
	start := time.Now()
	k := begin(c, c.queries, 'q')
	q.ID = k.id
	if err := k.send(wire.KindQuery, &q); err != nil {
		return wire.QueryResult{}, err
	}
	res, err := k.wait(timeout)
	if err == nil {
		c.tel.queries.Inc()
		c.tel.queryRTT.Observe(time.Since(start))
	}
	return res, err
}

// TermStats asks the server for its live document count, snapshot epoch,
// and per-term document frequency / score-bound statistics (parallel to
// terms). Scatter routers call this once per unseen (term set, epoch) and
// cache the answer.
func (c *Client) TermStats(terms []string, timeout time.Duration) (wire.TermStatsResp, error) {
	return c.TermStatsAsync(terms, timeout)()
}

// TermStatsAsync stages the stats request immediately and returns a wait
// function for the response. Scatter routers stage every shard's request
// back-to-back — the frames ride one coalesced batch per connection — and
// only then start waiting, overlapping the round-trips instead of paying
// them one by one. The wait function must be called exactly once.
func (c *Client) TermStatsAsync(terms []string, timeout time.Duration) func() (wire.TermStatsResp, error) {
	k := begin(c, c.stats, 's')
	req := wire.TermStatsReq{ID: k.id, Terms: terms}
	if err := k.send(wire.KindTermStats, &req); err != nil {
		return func() (wire.TermStatsResp, error) { return wire.TermStatsResp{}, err }
	}
	return func() (wire.TermStatsResp, error) { return k.wait(timeout) }
}

// pending is the demux table of one request/reply exchange: the channel
// each in-flight request id waits on. The client's mu guards it.
type pending[T any] map[string]chan T

// failAll wakes every waiter with a closed channel once the read loop has
// died and no reply can arrive; the caller holds the client's mu.
func (p pending[T]) failAll() {
	for _, ch := range p {
		close(ch)
	}
	clear(p)
}

// resolve hands a decoded reply to the call waiting on id, if one still is.
func resolve[T any](c *Client, p pending[T], id string, v T) {
	c.mu.Lock()
	ch, ok := p[id]
	delete(p, id)
	c.mu.Unlock()
	if ok {
		ch <- v
		close(ch)
	}
}

// call is one request in flight: an id registered in its pending table and
// the channel the read loop resolves. Every round trip is begin, send, wait.
type call[T any] struct {
	c  *Client
	p  pending[T]
	id string
	ch chan T
}

// begin mints a request id and registers its reply channel.
func begin[T any](c *Client, p pending[T], prefix byte) call[T] {
	c.mu.Lock()
	k := call[T]{c: c, p: p, id: c.newID(prefix), ch: make(chan T, 1)}
	p[k.id] = k.ch
	c.mu.Unlock()
	return k
}

// drop forgets the call. The read loop resolves only ids it finds in the
// table, so a call that will not be waited for — never sent, or timed out —
// must leave it, or the entry leaks until Close.
func (k call[T]) drop() {
	k.c.mu.Lock()
	delete(k.p, k.id)
	k.c.mu.Unlock()
}

// send stages the request, which must carry k.id.
func (k call[T]) send(kind wire.Kind, req wire.Appender) error {
	err := k.c.out.stage(kind, req)
	if err != nil {
		k.drop()
	}
	return err
}

// wait blocks until the reply arrives, the connection dies or the timeout
// expires.
func (k call[T]) wait(timeout time.Duration) (T, error) {
	t := acquireTimer(timeout)
	defer releaseTimer(t)
	select {
	case v, ok := <-k.ch:
		if !ok {
			return v, k.c.err()
		}
		return v, nil
	case <-t.C:
		k.drop()
		k.c.tel.timeouts.Inc()
		var zero T
		return zero, ErrTimeout
	}
}

// Subscribe registers a standing subscription; matching feed items arrive
// on c.Feed.
func (c *Client) Subscribe(subID string, terms []string, concept feature.Vector, threshold float64) error {
	s := wire.Subscribe{SubID: subID, Terms: terms, Concept: concept, Threshold: threshold}
	return c.out.stage(wire.KindSubscribe, &s)
}

// Unsubscribe cancels a subscription.
func (c *Client) Unsubscribe(subID string) error {
	return c.out.stageBytes(wire.KindUnsubscribe, []byte(subID))
}

// Close drains staged frames to the wire, then tears down the connection.
// A write deadline bounds the drain so a peer that stopped reading cannot
// wedge Close; a healthy drain finishes in microseconds.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if derr := c.out.close(); err == nil {
		err = derr
	}
	if cerr := c.conn.Close(); err == nil {
		err = cerr
	}
	<-c.done
	return err
}
