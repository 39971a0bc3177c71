package wire

// Self-contained message DTOs. Higher layers (query, qos, negotiate) convert
// their richer types to/from these; keeping only primitives here prevents
// import cycles and keeps the wire format independent of in-memory
// representations.

// Hello announces a node joining the overlay. ShardStart/ShardEnd advertise
// the key range of a partitioned corpus this node serves (inclusive bounds
// on the 64-bit shard ring; both zero = unsharded, the node holds a whole
// corpus). They are trailing optional fields — see the compatibility note
// at Query.
type Hello struct {
	NodeID     string
	Addr       string
	Topics     []string // advertised expertise, for semantic routing
	Capacity   int64
	ShardStart uint64
	ShardEnd   uint64
}

// AppendTo appends the encoded message to dst and returns the extended
// slice. It is the message's only marshal, as for every message here: the
// encoder is a Writer over the caller's buffer (typically a pooled
// per-connection staging buffer), which stays on the stack, so a warm
// buffer takes the message without a heap allocation (the wirealloc
// analyzer checks this for every AppendTo).
func (m *Hello) AppendTo(dst []byte) []byte {
	w := Writer{buf: dst}
	w.String(m.NodeID)
	w.String(m.Addr)
	w.Strings(m.Topics)
	w.I64(m.Capacity)
	w.U64(m.ShardStart)
	w.U64(m.ShardEnd)
	return w.buf
}

// UnmarshalHello decodes a Hello.
func UnmarshalHello(b []byte) (Hello, error) {
	r := NewReader(b)
	m := Hello{
		NodeID:   r.String(),
		Addr:     r.String(),
		Topics:   r.Strings(),
		Capacity: r.I64(),
	}
	if r.Err() == nil && r.Remaining() >= 16 {
		m.ShardStart = r.U64()
		m.ShardEnd = r.U64()
	}
	return m, r.Err()
}

// Gossip carries a membership sample.
type Gossip struct {
	From  string
	Peers []string // "id addr" pairs, flattened
}

// AppendTo appends the encoded message to dst; see Hello.AppendTo.
func (m *Gossip) AppendTo(dst []byte) []byte {
	w := Writer{buf: dst}
	w.String(m.From)
	w.Strings(m.Peers)
	return w.buf
}

// UnmarshalGossip decodes a Gossip.
func UnmarshalGossip(b []byte) (Gossip, error) {
	r := NewReader(b)
	m := Gossip{From: r.String(), Peers: r.Strings()}
	return m, r.Err()
}

// QoSTerms is the flat wire form of a QoS vector / SLA terms.
type QoSTerms struct {
	Price        float64
	LatencyMs    float64
	Completeness float64
	FreshnessSec float64
	Trust        float64
	Premium      float64
	PenaltyRate  float64
}

func (q *QoSTerms) encode(w *Writer) {
	w.F64(q.Price)
	w.F64(q.LatencyMs)
	w.F64(q.Completeness)
	w.F64(q.FreshnessSec)
	w.F64(q.Trust)
	w.F64(q.Premium)
	w.F64(q.PenaltyRate)
}

func decodeQoSTerms(r *Reader) QoSTerms {
	return QoSTerms{
		Price:        r.F64(),
		LatencyMs:    r.F64(),
		Completeness: r.F64(),
		FreshnessSec: r.F64(),
		Trust:        r.F64(),
		Premium:      r.F64(),
		PenaltyRate:  r.F64(),
	}
}

// Query is a wire query: free text plus an optional concept vector and the
// QoS the consumer wants. TraceID/SpanID carry the caller's trace context
// (zero = untraced) so the provider can continue the trace; they are
// trailing optional fields — see the compatibility note below.
type Query struct {
	ID      string
	From    string
	Text    string
	Concept []float64
	TopK    uint32
	TTL     uint32
	Want    QoSTerms
	TraceID uint64
	SpanID  uint64

	// Shard-routing tail (optional, after the trace tail). A scatter router
	// ships corpus-wide statistics with the query so every shard scores
	// against the same idf weights a single node holding the whole corpus
	// would use: GlobalDocs is the corpus document count and
	// StatsTerms/StatsDF are parallel per-term global document frequencies.
	// GlobalDocs == 0 means "score locally" (the pre-shard behaviour).
	GlobalDocs uint64
	StatsTerms []string
	StatsDF    []uint64

	// Assumed-figures tail (optional, after the statistics tail; sent iff
	// Assumed). The global figures above are sums the router made from what
	// each shard last reported. These are the addends it used for the shard
	// being asked: its document count and, parallel to StatsTerms, each
	// term's local document frequency and maximum term-weight ratio. The
	// shard answers only if they still describe the snapshot it searches
	// (see QueryResult.Drift).
	Assumed         bool
	AssumedDocs     uint64
	AssumedDF       []uint64
	AssumedMaxRatio []float64
}

// Trace-context fields ride as *trailing* fixed-width fields rather than a
// frame-version bump: a v1 decoder that predates them stops reading before
// the tail and ignores it, while a new decoder reads them only when enough
// bytes remain. Old frames therefore stay decodable (context reads as
// zero, i.e. untraced) and old peers tolerate new frames. Any future
// optional field must be appended after these, same trick. A tail of
// variable width (the assumed figures of Query, the drift figures of
// QueryResult) is all-or-nothing: bytes too few or too malformed to be the
// field are a tail this decoder does not know, and are ignored like one.

// AppendTo appends the encoded message to dst; see Hello.AppendTo.
func (m *Query) AppendTo(dst []byte) []byte {
	w := Writer{buf: dst}
	w.String(m.ID)
	w.String(m.From)
	w.String(m.Text)
	w.F64s(m.Concept)
	w.U32(m.TopK)
	w.U32(m.TTL)
	m.Want.encode(&w)
	w.U64(m.TraceID)
	w.U64(m.SpanID)
	w.U64(m.GlobalDocs)
	w.Strings(m.StatsTerms)
	w.U64s(m.StatsDF)
	if m.Assumed {
		appendFigures(&w, m.AssumedDocs, m.AssumedDF, m.AssumedMaxRatio)
	}
	return w.buf
}

// appendFigures writes one shard's local figures, the optional tail Query
// and QueryResult share: document count, then the parallel per-term document
// frequencies and maximum ratios.
func appendFigures(w *Writer, docs uint64, df []uint64, maxRatio []float64) {
	w.U64(docs)
	w.U64s(df)
	w.F64s(maxRatio)
}

// figures reads the tail appendFigures wrote, the slices into the backing
// arrays of df and maxRatio. ok is false, with nothing consumed and no error
// raised, when what remains cannot be that tail.
func (r *Reader) figures(df []uint64, maxRatio []float64) (docs uint64, _ []uint64, _ []float64, ok bool) {
	if r.err != nil || r.Remaining() < 10 { // count + two empty slices
		return 0, df[:0], maxRatio[:0], false
	}
	off := r.off
	docs, df, maxRatio = r.U64(), r.U64sInto(df), r.F64sInto(maxRatio)
	if r.err != nil {
		r.off, r.err = off, nil
		return 0, df[:0], maxRatio[:0], false
	}
	return docs, df, maxRatio, true
}

// UnmarshalQuery decodes a Query.
func UnmarshalQuery(b []byte) (Query, error) {
	var m Query
	err := decodeQuery(NewReader(b), &m)
	return m, err
}

// UnmarshalQueryShared decodes a Query with all string fields sharing one
// backing allocation (NewSharedReader): the streaming server path decodes
// pooled FrameReader payloads through this.
func UnmarshalQueryShared(b []byte) (Query, error) {
	var m Query
	err := DecodeQueryShared(b, &m)
	return m, err
}

// DecodeQueryShared is UnmarshalQueryShared over a Query the caller keeps
// between frames: every field is overwritten, and the assumed figures land
// in the backing arrays m already owns, so a connection that decodes its
// queries one at a time pays for them once.
func DecodeQueryShared(b []byte, m *Query) error { return decodeQuery(NewSharedReader(b), m) }

func decodeQuery(r *Reader, m *Query) error {
	df, maxRatio := m.AssumedDF, m.AssumedMaxRatio
	*m = Query{
		ID:      r.String(),
		From:    r.String(),
		Text:    r.String(),
		Concept: r.F64s(),
		TopK:    r.U32(),
		TTL:     r.U32(),
		Want:    decodeQoSTerms(r),
	}
	if r.Err() == nil && r.Remaining() >= 16 {
		m.TraceID = r.U64()
		m.SpanID = r.U64()
	}
	if r.Err() == nil && r.Remaining() > 0 {
		m.GlobalDocs = r.U64()
		m.StatsTerms = r.Strings()
		m.StatsDF = r.U64s()
	}
	m.AssumedDocs, m.AssumedDF, m.AssumedMaxRatio, m.Assumed = r.figures(df, maxRatio)
	return r.Err()
}

// ResultItem is one scored answer.
type ResultItem struct {
	DocID   string
	Source  string
	Score   float64
	Snippet string
}

// QueryResult returns scored items for a query. TraceID echoes the trace
// the provider served under (its own fresh ID if the query was untraced),
// so the consumer can log which distributed trace to look up server-side.
// Trailing optional field, same compatibility contract as Query.
type QueryResult struct {
	QueryID string
	From    string
	Items   []ResultItem
	Elapsed float64 // seconds, provider-side
	TraceID uint64
	Epoch   uint64 // provider snapshot epoch answered from (0 = unreported)

	// Drift tail (optional, after Epoch; sent iff Drift). A shard whose
	// snapshot contradicts the query's assumed figures answers nothing: no
	// Items, and instead what the figures are now, at Epoch — its document
	// count and, parallel to the query's StatsTerms, each term's local
	// document frequency and maximum ratio.
	Drift    bool
	Docs     uint64
	DF       []uint64
	MaxRatio []float64
}

// AppendTo appends the encoded message to dst; see Hello.AppendTo.
func (m *QueryResult) AppendTo(dst []byte) []byte {
	w := Writer{buf: dst}
	w.String(m.QueryID)
	w.String(m.From)
	w.Uvarint(uint64(len(m.Items)))
	for i := range m.Items {
		it := &m.Items[i]
		w.String(it.DocID)
		w.String(it.Source)
		w.F64(it.Score)
		w.String(it.Snippet)
	}
	w.F64(m.Elapsed)
	w.U64(m.TraceID)
	w.U64(m.Epoch)
	if m.Drift {
		appendFigures(&w, m.Docs, m.DF, m.MaxRatio)
	}
	return w.buf
}

// UnmarshalQueryResult decodes a QueryResult.
func UnmarshalQueryResult(b []byte) (QueryResult, error) {
	return decodeQueryResult(NewReader(b))
}

// UnmarshalQueryResultShared decodes a QueryResult with every string field
// (per-item DocID/Source/Snippet included) sliced from one shared backing
// allocation — a k-item result decodes with two allocations instead of
// 3k+2. The client demux loop uses this on pooled FrameReader payloads.
func UnmarshalQueryResultShared(b []byte) (QueryResult, error) {
	return decodeQueryResult(NewSharedReader(b))
}

func decodeQueryResult(r *Reader) (QueryResult, error) {
	m := QueryResult{QueryID: r.String(), From: r.String()}
	n := r.Uvarint()
	if n > MaxBlob {
		return m, ErrTooLarge
	}
	if n > 0 && r.Err() == nil {
		m.Items = make([]ResultItem, 0, min(int(n), 4096))
	}
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		m.Items = append(m.Items, ResultItem{
			DocID:   r.String(),
			Source:  r.String(),
			Score:   r.F64(),
			Snippet: r.String(),
		})
	}
	m.Elapsed = r.F64()
	if r.Err() == nil && r.Remaining() >= 8 {
		m.TraceID = r.U64()
	}
	if r.Err() == nil && r.Remaining() >= 8 {
		m.Epoch = r.U64()
		m.Docs, m.DF, m.MaxRatio, m.Drift = r.figures(nil, nil)
	}
	return m, r.Err()
}

// FeedItem is one item pushed on a continuous feed.
type FeedItem struct {
	FeedID  string
	DocID   string
	Source  string
	Text    string
	Concept []float64
	Seq     uint64
}

// AppendTo appends the encoded message to dst; see Hello.AppendTo.
func (m *FeedItem) AppendTo(dst []byte) []byte {
	w := Writer{buf: dst}
	w.String(m.FeedID)
	w.String(m.DocID)
	w.String(m.Source)
	w.String(m.Text)
	w.F64s(m.Concept)
	w.U64(m.Seq)
	return w.buf
}

// UnmarshalFeedItem decodes a FeedItem.
func UnmarshalFeedItem(b []byte) (FeedItem, error) { return decodeFeedItem(NewReader(b)) }

// UnmarshalFeedItemShared decodes a FeedItem with its strings sharing one
// backing allocation; safe to retain (the backing is independent of b).
func UnmarshalFeedItemShared(b []byte) (FeedItem, error) { return decodeFeedItem(NewSharedReader(b)) }

func decodeFeedItem(r *Reader) (FeedItem, error) {
	m := FeedItem{
		FeedID:  r.String(),
		DocID:   r.String(),
		Source:  r.String(),
		Text:    r.String(),
		Concept: r.F64s(),
		Seq:     r.U64(),
	}
	return m, r.Err()
}

// Subscribe registers a standing interest with a provider.
type Subscribe struct {
	SubID     string
	From      string
	Terms     []string  // textual predicate terms (all must match)
	Concept   []float64 // similarity predicate; empty disables
	Threshold float64
}

// AppendTo appends the encoded message to dst; see Hello.AppendTo.
func (m *Subscribe) AppendTo(dst []byte) []byte {
	w := Writer{buf: dst}
	w.String(m.SubID)
	w.String(m.From)
	w.Strings(m.Terms)
	w.F64s(m.Concept)
	w.F64(m.Threshold)
	return w.buf
}

// UnmarshalSubscribe decodes a Subscribe.
func UnmarshalSubscribe(b []byte) (Subscribe, error) {
	r := NewReader(b)
	m := Subscribe{
		SubID:     r.String(),
		From:      r.String(),
		Terms:     r.Strings(),
		Concept:   r.F64s(),
		Threshold: r.F64(),
	}
	return m, r.Err()
}

// TermStatsReq asks a shard for per-term corpus statistics, so a scatter
// router can assemble global idf weights and shard-level score upper bounds
// before dispatching a query.
type TermStatsReq struct {
	ID    string
	Terms []string
}

// AppendTo appends the encoded message to dst; see Hello.AppendTo.
func (m *TermStatsReq) AppendTo(dst []byte) []byte {
	w := Writer{buf: dst}
	w.String(m.ID)
	w.Strings(m.Terms)
	return w.buf
}

// UnmarshalTermStatsReq decodes a TermStatsReq.
func UnmarshalTermStatsReq(b []byte) (TermStatsReq, error) {
	return decodeTermStatsReq(NewReader(b))
}

// UnmarshalTermStatsReqShared decodes a TermStatsReq with ID and all terms
// sharing one backing allocation (the payload is almost entirely strings).
func UnmarshalTermStatsReqShared(b []byte) (TermStatsReq, error) {
	return decodeTermStatsReq(NewSharedReader(b))
}

func decodeTermStatsReq(r *Reader) (TermStatsReq, error) {
	m := TermStatsReq{ID: r.String(), Terms: r.Strings()}
	return m, r.Err()
}

// TermStatsResp answers a TermStatsReq: the shard's live document count and
// snapshot epoch, plus per-term document frequency and the maximum
// normalized term-weight ratio max_d (1+ln tf)/sqrt(len_d+1) — the shard's
// contribution to a score upper bound. DF and MaxRatio are parallel to the
// request's Terms.
type TermStatsResp struct {
	ID       string
	Total    uint64 // documents on this shard
	Epoch    uint64 // snapshot epoch the stats were read at
	DF       []uint64
	MaxRatio []float64
}

// AppendTo appends the encoded message to dst; see Hello.AppendTo.
func (m *TermStatsResp) AppendTo(dst []byte) []byte {
	w := Writer{buf: dst}
	w.String(m.ID)
	w.U64(m.Total)
	w.U64(m.Epoch)
	w.U64s(m.DF)
	w.F64s(m.MaxRatio)
	return w.buf
}

// UnmarshalTermStatsResp decodes a TermStatsResp.
func UnmarshalTermStatsResp(b []byte) (TermStatsResp, error) {
	r := NewReader(b)
	m := TermStatsResp{
		ID:       r.String(),
		Total:    r.U64(),
		Epoch:    r.U64(),
		DF:       r.U64s(),
		MaxRatio: r.F64s(),
	}
	return m, r.Err()
}
