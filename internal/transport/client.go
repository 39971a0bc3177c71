package transport

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/feature"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Client is a consumer connection to one agora node over TCP, shared by
// the goroutines that ask through it. Each frame it sends is encoded into
// one reused buffer and written with one Write under sendMu.
type Client struct {
	conn net.Conn
	r    *bufio.Reader

	// sendMu serialises the writers — askers, pings and Close. It is not mu,
	// which the read loop takes to resolve replies, so a Write blocked on a
	// slow peer holds up no reply.
	sendMu  sync.Mutex
	sendBuf []byte // the frame being written, reused for the next one
	sendErr error  // the first failed Write's error, or errClosed; sticky
	frames  atomic.Uint64

	mu     sync.Mutex
	nextID uint64
	// queries is the demux table of the one request/reply exchange: the
	// channel each in-flight request id waits on — a query's, or a ping's,
	// whose pong echoes the id. mu guards it.
	queries map[string]chan wire.QueryResult
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
	queries, timeouts *telemetry.Counter
	queryRTT, pingRTT *telemetry.Histogram
}

func newClientTel(reg *telemetry.Registry) clientTel {
	if reg == nil {
		return clientTel{}
	}
	return clientTel{
		queries:  reg.Counter("transport.client.queries"),
		timeouts: reg.Counter("transport.client.timeouts"),
		queryRTT: reg.Histogram("transport.client.query"),
		pingRTT:  reg.Histogram("transport.client.ping"),
	}
}

// Dial connects and performs the hello handshake.
func Dial(addr, clientID string, timeout time.Duration) (*Client, error) {
	return DialWithTelemetry(addr, clientID, timeout, nil)
}

// DialWithTelemetry is Dial with client round-trip instruments (query/ping
// RTT histograms, timeout counter) registered in reg before
// the demux loop starts, keeping the accounting race-free.
func DialWithTelemetry(addr, clientID string, timeout time.Duration, reg *telemetry.Registry) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:    conn,
		r:       bufio.NewReader(conn),
		queries: map[string]chan wire.QueryResult{},
		done:    make(chan struct{}),
		tel:     newClientTel(reg),
	}
	// abort tears down a half-built connection; the handshake error being
	// returned to the caller is the failure, so teardown errors are
	// secondary.
	abort := func() { conn.Close() }
	hello := wire.Hello{NodeID: clientID}
	if err := c.writeFrame(wire.KindHello, &hello); err != nil {
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

// WireStats counts the frames this client has written.
func (c *Client) WireStats() WireStats {
	n := c.frames.Load()
	return WireStats{Frames: n, Flushes: n}
}

// errClosed fails every write after Close.
var errClosed = errors.New("transport: connection closed")

// writeFrame writes one frame with one Write. After a Write fails, or after
// Close, it writes nothing and returns that error.
func (c *Client) writeFrame(kind wire.Kind, m wire.Appender) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.sendErr == nil {
		c.sendBuf, c.sendErr = appendWrite(c.conn, c.sendBuf, &c.frames, kind, m)
	}
	return c.sendErr
}

func (c *Client) readLoop() {
	defer close(c.done)
	fr := wire.NewFrameReader(c.r)
	for {
		f, err := fr.Next()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for _, ch := range c.queries { // no reply can arrive: wake every waiter
				close(ch)
			}
			clear(c.queries)
			c.mu.Unlock()
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
			c.resolve(res)
		case wire.KindPong:
			c.resolve(wire.QueryResult{QueryID: string(f.Payload)})
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
func (c *Client) newID() string {
	c.nextID++
	var buf [24]byte
	b := append(buf[:0], 'q')
	return string(strconv.AppendUint(b, c.nextID, 10))
}

// Ping round-trips a ping. Its payload is a fresh request id, which the
// server echoes in its pong, so a pong answers only the ping that sent it:
// one that arrives after its ping timed out, or that another ping sent,
// finds no call waiting under its id and is discarded.
func (c *Client) Ping(timeout time.Duration) (time.Duration, error) {
	k := c.begin(timeout)
	k.answered, k.rtt = nil, c.tel.pingRTT // a pong answers no query
	if err := c.writeFrame(wire.KindPing, rawPayload(k.id)); err != nil {
		k.drop()
		return 0, err
	}
	if _, err := k.Wait(); err != nil {
		return 0, err
	}
	return time.Since(k.start), nil
}

func (c *Client) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return errClosed
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
func (c *Client) StartQueryTraced(text string, concept feature.Vector, topK int, timeout time.Duration, tc telemetry.TraceContext) Call {
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
func (c *Client) StartQuery(q wire.Query, timeout time.Duration) Call {
	k := c.begin(timeout)
	k.send(&q)
	return k
}

// TermStats reports the server's document count, epoch and per-term figures
// (parallel to terms) as a drift reply's Docs, Epoch, DF and MaxRatio: one
// Query under an assumption no store confirms. Only the benchmark's replay
// calls it; benchmark revision item 1 deletes it.
func (c *Client) TermStats(terms []string, timeout time.Duration) (wire.QueryResult, error) {
	df, maxRatio := make([]uint64, len(terms)), make([]float64, len(terms))
	return c.StartQuery(wire.Query{
		StatsTerms: terms, StatsDF: df,
		Assumed: true, AssumedDocs: math.MaxUint64, AssumedDF: df, AssumedMaxRatio: maxRatio,
	}, timeout).Wait()
}

// resolve hands a decoded reply to the call waiting on its id, if one still
// is; a reply to a call that timed out or was dropped is discarded.
func (c *Client) resolve(res wire.QueryResult) {
	c.mu.Lock()
	ch, ok := c.queries[res.QueryID]
	delete(c.queries, res.QueryID)
	c.mu.Unlock()
	if ok {
		ch <- res
		close(ch)
	}
}

// Call is one request in flight, the only kind the client has: an id
// registered in its demux table, the channel the read loop resolves, and
// a deadline that runs from the moment the request was staged — not from
// the moment somebody starts waiting, so a caller that stages several calls
// and waits for them in turn bounds the whole exchange by one timeout.
// Every blocking round trip is a Start followed by Wait. A call ends once:
// by Wait, by a WaitWithin that reports done, or as either side of First.
type Call struct {
	c       *Client
	id      string
	ch      chan wire.QueryResult
	start   time.Time
	timeout time.Duration
	err     error // the write failed: nothing was sent, nothing will arrive

	// answered and rtt account a good reply (nil-safe).
	answered *telemetry.Counter
	rtt      *telemetry.Histogram
}

// begin mints a request id, registers its reply channel and starts the
// call's clock.
func (c *Client) begin(timeout time.Duration) Call {
	c.mu.Lock()
	k := Call{
		c: c, id: c.newID(), ch: make(chan wire.QueryResult, 1), start: time.Now(), timeout: timeout,
		answered: c.tel.queries, rtt: c.tel.queryRTT,
	}
	c.queries[k.id] = k.ch
	c.mu.Unlock()
	return k
}

// send writes q under the call's id. A failure ends the call the way a dead
// connection does, by a closed channel — closed by whoever removes the
// entry, as resolve and the dying read loop do: the broken connection that
// failed the write may already have had the read loop close it.
func (k *Call) send(q *wire.Query) {
	q.ID = k.id
	if k.err = k.c.writeFrame(wire.KindQuery, q); k.err != nil && k.drop() {
		close(k.ch)
	}
}

// drop forgets the call and reports whether its entry was still there. A
// call nobody will wait for — never sent, timed out, a hedge's loser — must
// leave the table or it leaks until Close; the read loop resolves only ids
// it finds there, so a reply that arrives afterwards is discarded.
func (k Call) drop() bool {
	k.c.mu.Lock()
	_, mine := k.c.queries[k.id]
	delete(k.c.queries, k.id)
	k.c.mu.Unlock()
	return mine
}

// Wait blocks until the reply arrives, the connection dies or the call's
// deadline passes.
func (k Call) Wait() (wire.QueryResult, error) {
	v, _, err := k.WaitWithin(k.timeout)
	return v, err
}

// WaitWithin is Wait that gives up once d has passed since the call was
// staged: it then reports done=false and the call stays in flight — its
// reply can still be collected by a later Wait or First. With done=true the
// call is over, as after Wait.
func (k Call) WaitWithin(d time.Duration) (v wire.QueryResult, done bool, err error) {
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
// or the error that closed the channel unresolved — the failed write's, else
// the dead read loop's.
func (k Call) reply(v wire.QueryResult, ok bool) (wire.QueryResult, bool, error) {
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
func First(a, b Call) (wire.QueryResult, error) {
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
func (k Call) orElse(other Call, v wire.QueryResult, ok bool) (wire.QueryResult, error) {
	if v, _, err := k.reply(v, ok); err == nil {
		other.drop()
		return v, nil
	}
	return other.Wait()
}

// Close tears down the connection and returns the first failed Write's
// error, if a write failed, else the socket's close error. Every frame
// written before Close is already in the kernel's hands. Closing the socket
// comes first: it fails a Write blocked on a peer that stopped reading, so
// Close never waits behind one.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	c.sendMu.Lock()
	if c.sendErr != nil {
		err = c.sendErr
	}
	c.sendErr = errClosed
	c.sendMu.Unlock()
	<-c.done
	return err
}
