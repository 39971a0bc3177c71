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
	return c.StartQueryTraced(text, concept, topK, timeout, tc).Wait()
}

// StartQueryTraced stages QueryTraced's request and returns the call in
// flight, so a caller asking several nodes pays the slowest round trip
// instead of their sum.
func (c *Client) StartQueryTraced(text string, concept feature.Vector, topK int, timeout time.Duration, tc telemetry.TraceContext) Call[wire.QueryResult] {
	return c.StartQuery(wire.Query{
		Text: text, Concept: concept, TopK: uint32(topK),
		TraceID: uint64(tc.TraceID), SpanID: uint64(tc.SpanID),
	}, timeout)
}

// QueryGlobal sends a query carrying router-supplied corpus-wide statistics
// (see docstore.GlobalStats): the server scores it with global idf weights
// instead of its local ones, which is what makes per-shard results merge
// bit-identically to a single node holding the whole corpus. statsTerms and
// statsDF are parallel; globalDocs must be > 0.
func (c *Client) QueryGlobal(text string, topK int, timeout time.Duration, tc telemetry.TraceContext, globalDocs uint64, statsTerms []string, statsDF []uint64) (wire.QueryResult, error) {
	return c.StartQuery(wire.Query{
		Text: text, TopK: uint32(topK),
		TraceID: uint64(tc.TraceID), SpanID: uint64(tc.SpanID),
		GlobalDocs: globalDocs, StatsTerms: statsTerms, StatsDF: statsDF,
	}, timeout).Wait()
}

// StartQuery stages q under a fresh request id and returns the call in
// flight. A scatter router fills in the statistics and what it assumed of
// the shard itself, keeps several shards' queries on the wire and waits for
// them on the goroutine that asked. q is encoded before StartQuery returns,
// so its slices may be scratch the caller reuses.
func (c *Client) StartQuery(q wire.Query, timeout time.Duration) Call[wire.QueryResult] {
	k := begin(c, c.queries, 'q', timeout)
	k.answered, k.rtt = c.tel.queries, c.tel.queryRTT
	q.ID = k.id
	k.send(wire.KindQuery, &q)
	return k
}

// TermStats asks the server for its live document count, snapshot epoch,
// and per-term document frequency / score-bound statistics (parallel to
// terms). Scatter routers call this for terms they hold no figures of and
// cache the answer; what they hold is confirmed or corrected by each query.
func (c *Client) TermStats(terms []string, timeout time.Duration) (wire.TermStatsResp, error) {
	return c.StartTermStats(terms, timeout).Wait()
}

// StartTermStats stages TermStats' request and returns the call in flight.
// Scatter routers stage every shard's request back to back — the frames
// ride one coalesced batch per connection — and only then start waiting,
// overlapping the round trips instead of paying them one by one.
func (c *Client) StartTermStats(terms []string, timeout time.Duration) Call[wire.TermStatsResp] {
	k := begin(c, c.stats, 's', timeout)
	k.send(wire.KindTermStats, &wire.TermStatsReq{ID: k.id, Terms: terms})
	return k
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

// resolve hands a decoded reply to the call waiting on id, if one still is;
// a reply to a call that timed out or was dropped is discarded.
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

// Call is one request in flight, the only kind the client has: an id
// registered in its pending table, the channel the read loop resolves, and
// a deadline that runs from the moment the request was staged — not from
// the moment somebody starts waiting, so a caller that stages several calls
// and waits for them in turn bounds the whole exchange by one timeout.
// Every blocking round trip is a Start followed by Wait. A call ends once:
// by Wait, by a WaitWithin that reports done, or as either side of First.
type Call[T any] struct {
	c       *Client
	p       pending[T]
	id      string
	ch      chan T
	start   time.Time
	timeout time.Duration
	err     error // the stage failed: nothing was sent, nothing will arrive

	// answered and rtt account a good reply (nil-safe; queries set them).
	answered *telemetry.Counter
	rtt      *telemetry.Histogram
}

// begin mints a request id, registers its reply channel and starts the
// call's clock.
func begin[T any](c *Client, p pending[T], prefix byte, timeout time.Duration) Call[T] {
	c.mu.Lock()
	k := Call[T]{c: c, p: p, id: c.newID(prefix), ch: make(chan T, 1), start: time.Now(), timeout: timeout}
	p[k.id] = k.ch
	c.mu.Unlock()
	return k
}

// send stages the request, which must carry k.id. A failure ends the call
// the way a dead connection does, by a closed channel — closed by whoever
// removes the entry, as in resolve and failAll: the broken connection that
// failed the write may already have had the read loop close it.
func (k *Call[T]) send(kind wire.Kind, req wire.Appender) {
	if k.err = k.c.out.stage(kind, req); k.err != nil && k.drop() {
		close(k.ch)
	}
}

// drop forgets the call and reports whether its entry was still there. A
// call nobody will wait for — never sent, timed out, a hedge's loser — must
// leave the table or it leaks until Close; the read loop resolves only ids
// it finds there, so a reply that arrives afterwards is discarded.
func (k Call[T]) drop() bool {
	k.c.mu.Lock()
	_, mine := k.p[k.id]
	delete(k.p, k.id)
	k.c.mu.Unlock()
	return mine
}

// Wait blocks until the reply arrives, the connection dies or the call's
// deadline passes.
func (k Call[T]) Wait() (T, error) {
	v, _, err := k.WaitWithin(k.timeout)
	return v, err
}

// WaitWithin is Wait that gives up once d has passed since the call was
// staged: it then reports done=false and the call stays in flight — its
// reply can still be collected by a later Wait or First. With done=true the
// call is over, as after Wait.
func (k Call[T]) WaitWithin(d time.Duration) (v T, done bool, err error) {
	// A reply already here wins over a deadline that has also passed: calls
	// staged together and waited for in turn all expire at the same moment,
	// and one mute peer must not turn its neighbours' answers into timeouts.
	select {
	case v, ok := <-k.ch:
		return k.reply(v, ok)
	default:
	}
	if left := min(d, k.timeout) - time.Since(k.start); left > 0 {
		t := acquireTimer(left)
		defer releaseTimer(t)
		select {
		case v, ok := <-k.ch:
			return k.reply(v, ok)
		case <-t.C:
		}
	}
	if d < k.timeout {
		return v, false, nil
	}
	k.drop()
	k.c.tel.timeouts.Inc()
	return v, true, ErrTimeout
}

// reply turns what came off the channel into the call's outcome: the value,
// or the error that closed the channel unresolved — the failed stage's, else
// the dead read loop's.
func (k Call[T]) reply(v T, ok bool) (T, bool, error) {
	switch {
	case ok:
		k.answered.Inc()
		k.rtt.Observe(time.Since(k.start))
		return v, true, nil
	case k.err != nil:
		return v, true, k.err
	}
	return v, true, k.c.err()
}

// First waits for two calls carrying one request to two peers — a primary
// and the replica hedging it — and returns the first good answer. The other
// call is dropped, never waited for in the background; a call that fails
// leaves the other to decide, so the error is the later failure's.
func First[T any](a, b Call[T]) (T, error) {
	if b.start.Add(b.timeout).Before(a.start.Add(a.timeout)) {
		a, b = b, a // a expires first
	}
	t := acquireTimer(a.timeout - time.Since(a.start))
	defer releaseTimer(t)
	select {
	case v, ok := <-a.ch:
		return a.orElse(b, v, ok)
	case v, ok := <-b.ch:
		return b.orElse(a, v, ok)
	case <-t.C:
		a.drop()
		a.c.tel.timeouts.Inc()
		return b.Wait()
	}
}

// orElse settles First once k's channel has yielded: a good reply wins and
// the other call is dropped; a dead connection leaves the other to decide.
func (k Call[T]) orElse(other Call[T], v T, ok bool) (T, error) {
	if v, _, err := k.reply(v, ok); err == nil {
		other.drop()
		return v, nil
	}
	return other.Wait()
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
