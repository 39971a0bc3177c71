// Package overlay implements the unstructured peer-to-peer overlay that an
// Open Agora runs on: independent nodes with partial views of the
// membership, maintained by gossip, plus semantic shortcut links to peers
// with similar content. Queries are disseminated by flooding, random walks,
// or semantic routing — the three strategies experiment E12 compares.
//
// The overlay is transport-agnostic at the node level but this package
// drives it over the deterministic sim.Network.
package overlay

import (
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/feature"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Strategy selects how a query spreads through the overlay.
type Strategy int

// Dissemination strategies.
const (
	Flood Strategy = iota
	RandomWalk
	Semantic
)

func (s Strategy) String() string {
	switch s {
	case Flood:
		return "flood"
	case RandomWalk:
		return "randomwalk"
	case Semantic:
		return "semantic"
	default:
		return "strategy(?)"
	}
}

// QueryMsg travels the overlay. Trace is the distributed-trace context of
// the ask that issued the probe (zero = untraced); it rides every
// forwarded copy so per-hop spans land in the right trace.
type QueryMsg struct {
	ID       string
	Origin   int
	Concept  feature.Vector
	Text     string
	TTL      int
	Strategy Strategy
	Walkers  int // for RandomWalk fan-out at origin
	Fanout   int // for Semantic forwarding degree
	Trace    telemetry.TraceContext
}

// Answer is a node's local response to a query, reported to the origin's
// collector.
type Answer struct {
	QueryID string
	From    int
	Payload any
	HopAt   sim.Time
}

// Handler is the application living on a node: it answers queries and
// exposes the node's content profile for semantic link formation.
type Handler interface {
	// HandleQuery produces this node's local answer payload (nil = no
	// relevant content).
	HandleQuery(q QueryMsg) any
	// ContentVector advertises the node's expertise in concept space.
	ContentVector() feature.Vector
}

// Node is one overlay participant.
type Node struct {
	ID      int
	ov      *Overlay
	handler Handler

	view      []int // random partial view (gossip-maintained)
	shortcuts []int // semantic neighbors
	seenQuery map[string]bool

	// Stats
	Forwarded uint64
	Answered  uint64
}

// Config tunes the overlay.
type Config struct {
	ViewSize      int           // gossip partial view size
	ShortcutCount int           // semantic neighbor count
	GossipPeriod  time.Duration // membership exchange period
	RefreshPeriod time.Duration // semantic shortcut refresh period
}

// DefaultConfig returns production-ish defaults.
func DefaultConfig() Config {
	return Config{
		ViewSize:      8,
		ShortcutCount: 5,
		GossipPeriod:  5 * time.Second,
		RefreshPeriod: 30 * time.Second,
	}
}

// Overlay owns the node set and drives gossip.
type Overlay struct {
	net    *sim.Network
	cfg    Config
	nodes  map[int]*Node
	ids    []int // join order: what draws from rng walks it, never nodes
	rng    *rand.Rand
	answer map[string]func(Answer)    // per-query collectors at origins
	spans  map[string]*telemetry.Span // per-query parent spans for hop tracing

	// Stats
	QueryMsgs  uint64
	GossipMsgs uint64

	tel overlayTel
}

// overlayTel mirrors the overlay's routing effort into a telemetry
// registry so operators can see dissemination cost per strategy.
type overlayTel struct {
	queryMsgs, gossipMsgs, answers *telemetry.Counter
}

// SetTelemetry registers routing counters (overlay.query.msgs,
// overlay.gossip.msgs, overlay.answers) in reg. Nil disables.
func (ov *Overlay) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		ov.tel = overlayTel{}
		return
	}
	ov.tel = overlayTel{
		queryMsgs:  reg.Counter("overlay.query.msgs"),
		gossipMsgs: reg.Counter("overlay.gossip.msgs"),
		answers:    reg.Counter("overlay.answers"),
	}
}

// New creates an overlay over the given simulated network.
func New(net *sim.Network, cfg Config) *Overlay {
	if cfg.ViewSize <= 0 {
		cfg = DefaultConfig()
	}
	ov := &Overlay{
		net:    net,
		cfg:    cfg,
		nodes:  make(map[int]*Node),
		rng:    net.Kernel().Stream("overlay"),
		answer: make(map[string]func(Answer)),
		spans:  make(map[string]*telemetry.Span),
	}
	return ov
}

// AddNode joins a node with the given handler. Initial views are wired when
// Bootstrap is called.
func (ov *Overlay) AddNode(id int, h Handler) *Node {
	n := &Node{ID: id, ov: ov, handler: h, seenQuery: make(map[string]bool)}
	ov.nodes[id] = n
	ov.ids = append(ov.ids, id)
	ov.net.Attach(id, (*nodeEndpoint)(n))
	return n
}

// Node returns the node with the given id, or nil.
func (ov *Overlay) Node(id int) *Node { return ov.nodes[id] }

// Size returns the number of nodes.
func (ov *Overlay) Size() int { return len(ov.ids) }

// IDs returns all node ids (shared slice; do not mutate).
func (ov *Overlay) IDs() []int { return ov.ids }

// Bootstrap wires initial random views and semantic shortcuts, then starts
// the periodic gossip and refresh processes.
func (ov *Overlay) Bootstrap() {
	for _, id := range ov.ids {
		ov.nodes[id].view = ov.sampleIDs(id, ov.cfg.ViewSize)
	}
	ov.refreshShortcuts()
	k := ov.net.Kernel()
	k.Every(ov.cfg.GossipPeriod, ov.gossipRound)
	k.Every(ov.cfg.RefreshPeriod, ov.refreshShortcuts)
}

// sampleIDs picks up to k distinct ids excluding self.
func (ov *Overlay) sampleIDs(self, k int) []int {
	if k >= len(ov.ids) {
		k = len(ov.ids) - 1
	}
	if k <= 0 {
		return nil
	}
	perm := ov.rng.Perm(len(ov.ids))
	out := make([]int, 0, k)
	for _, p := range perm {
		id := ov.ids[p]
		if id == self {
			continue
		}
		out = append(out, id)
		if len(out) == k {
			break
		}
	}
	return out
}

// gossipRound has every live node exchange a view sample with one random
// view member (Cyclon-style shuffle, simplified: symmetric merge + trim).
func (ov *Overlay) gossipRound() {
	for _, id := range ov.ids {
		n := ov.nodes[id]
		if ov.net.IsDown(n.ID) || len(n.view) == 0 {
			continue
		}
		peer := n.view[ov.rng.Intn(len(n.view))]
		sample := n.sampleView(ov.cfg.ViewSize / 2)
		ov.GossipMsgs++
		ov.tel.gossipMsgs.Inc()
		ov.net.Send(sim.Message{
			From: n.ID, To: peer, Kind: "gossip",
			Payload: gossipPayload{from: n.ID, sample: sample},
			Size:    8 * (len(sample) + 1),
		})
	}
}

type gossipPayload struct {
	from   int
	sample []int
}

func (n *Node) sampleView(k int) []int {
	ids := append([]int{n.ID}, n.view...)
	n.ov.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if len(ids) > k {
		ids = ids[:k]
	}
	return ids
}

// mergeView folds incoming ids into the view, dropping self and duplicates,
// trimming uniformly at random to the configured size.
func (n *Node) mergeView(incoming []int) {
	seen := map[int]bool{n.ID: true}
	merged := make([]int, 0, len(n.view)+len(incoming))
	for _, id := range n.view {
		if !seen[id] {
			seen[id] = true
			merged = append(merged, id)
		}
	}
	for _, id := range incoming {
		if !seen[id] {
			seen[id] = true
			merged = append(merged, id)
		}
	}
	for len(merged) > n.ov.cfg.ViewSize {
		i := n.ov.rng.Intn(len(merged))
		merged[i] = merged[len(merged)-1]
		merged = merged[:len(merged)-1]
	}
	n.view = merged
}

// refreshShortcuts recomputes each node's semantic neighbors: the
// ShortcutCount nodes (from a gossip-sized candidate sample plus current
// shortcuts) whose content vectors are most similar to its own. With a
// global membership directory this would be cheating; sampling keeps it
// honest to what gossip can discover.
func (ov *Overlay) refreshShortcuts() {
	for _, nid := range ov.ids {
		n := ov.nodes[nid]
		self := n.handler.ContentVector()
		cands := map[int]bool{}
		for _, id := range n.view {
			cands[id] = true
		}
		for _, id := range n.shortcuts {
			cands[id] = true
		}
		for _, id := range ov.sampleIDs(n.ID, ov.cfg.ViewSize) {
			cands[id] = true
		}
		type scoredPeer struct {
			id int
			s  float64
		}
		var scoredPeers []scoredPeer
		for id := range cands {
			scoredPeers = append(scoredPeers, scoredPeer{id, feature.Cosine(self, ov.nodes[id].handler.ContentVector())})
		}
		sort.Slice(scoredPeers, func(i, j int) bool {
			if scoredPeers[i].s != scoredPeers[j].s {
				return scoredPeers[i].s > scoredPeers[j].s
			}
			return scoredPeers[i].id < scoredPeers[j].id
		})
		k := ov.cfg.ShortcutCount
		if k > len(scoredPeers) {
			k = len(scoredPeers)
		}
		n.shortcuts = n.shortcuts[:0]
		for i := 0; i < k; i++ {
			n.shortcuts = append(n.shortcuts, scoredPeers[i].id)
		}
	}
}

// Query injects a query at origin and registers collect for its answers.
// Answers stream in as overlay messages arrive; callers decide when to stop
// listening via CloseQuery.
func (ov *Overlay) Query(q QueryMsg, collect func(Answer)) {
	ov.QueryTraced(q, nil, collect)
}

// QueryTraced is Query with hop tracing: while the query is open, every
// forwarded copy and every answering node records a child span under
// parent (`overlay.forward from→to`, `overlay.answer node`), exposing the
// dissemination tree of the probe inside the ask's trace. The overlay runs
// single-threaded under the kernel lock, so the span map needs no lock of
// its own. Nil parent traces nothing.
func (ov *Overlay) QueryTraced(q QueryMsg, parent *telemetry.Span, collect func(Answer)) {
	ov.answer[q.ID] = collect
	if parent != nil {
		ov.spans[q.ID] = parent
	}
	origin := ov.nodes[q.Origin]
	if origin == nil {
		return
	}
	origin.receiveQuery(q)
}

// CloseQuery stops collecting answers (and hop spans) for a query id.
func (ov *Overlay) CloseQuery(id string) {
	delete(ov.answer, id)
	delete(ov.spans, id)
}

// nodeEndpoint adapts Node to sim.Endpoint.
type nodeEndpoint Node

// Deliver implements sim.Endpoint.
func (ne *nodeEndpoint) Deliver(msg sim.Message) {
	n := (*Node)(ne)
	switch p := msg.Payload.(type) {
	case gossipPayload:
		n.mergeView(p.sample)
	case QueryMsg:
		n.receiveQuery(p)
	case Answer:
		if collect, ok := n.ov.answer[p.QueryID]; ok {
			collect(p)
		}
	}
}

// receiveQuery handles a query at a node: answer locally, then forward per
// strategy.
func (n *Node) receiveQuery(q QueryMsg) {
	if n.seenQuery[q.ID] {
		if q.Strategy == RandomWalk {
			// Walkers bounce off visited nodes instead of dying.
			n.forwardWalk(q)
		}
		return
	}
	n.seenQuery[q.ID] = true
	if payload := n.handler.HandleQuery(q); payload != nil {
		n.Answered++
		n.ov.tel.answers.Inc()
		if sp := n.ov.spans[q.ID]; sp != nil {
			sp.Child("overlay.answer", "node "+strconv.Itoa(n.ID)).End()
		}
		ans := Answer{QueryID: q.ID, From: n.ID, Payload: payload, HopAt: n.ov.net.Kernel().Now()}
		if n.ID == q.Origin {
			if collect, ok := n.ov.answer[q.ID]; ok {
				collect(ans)
			}
		} else {
			n.ov.net.Send(sim.Message{From: n.ID, To: q.Origin, Kind: "answer", Payload: ans, Size: 256})
		}
	}
	if q.TTL <= 0 {
		return
	}
	q.TTL--
	switch q.Strategy {
	case Flood:
		for _, peer := range n.neighbors() {
			n.sendQuery(peer, q)
		}
	case RandomWalk:
		walkers := 1
		if n.ID == q.Origin && q.Walkers > 1 {
			walkers = q.Walkers
		}
		for i := 0; i < walkers; i++ {
			n.forwardWalk(q)
		}
	case Semantic:
		n.forwardSemantic(q)
	}
}

// neighbors returns the union of the random view and semantic shortcuts.
func (n *Node) neighbors() []int {
	seen := make(map[int]bool, len(n.view)+len(n.shortcuts))
	out := make([]int, 0, len(n.view)+len(n.shortcuts))
	for _, id := range n.view {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, id := range n.shortcuts {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

func (n *Node) forwardWalk(q QueryMsg) {
	if q.TTL <= 0 {
		return
	}
	nbrs := n.neighbors()
	if len(nbrs) == 0 {
		return
	}
	peer := nbrs[n.ov.rng.Intn(len(nbrs))]
	n.sendQuery(peer, q)
}

func (n *Node) forwardSemantic(q QueryMsg) {
	nbrs := n.neighbors()
	if len(nbrs) == 0 {
		return
	}
	type scoredPeer struct {
		id int
		s  float64
	}
	scoredPeers := make([]scoredPeer, 0, len(nbrs))
	for _, id := range nbrs {
		peer := n.ov.nodes[id]
		if peer == nil {
			continue
		}
		scoredPeers = append(scoredPeers, scoredPeer{id, feature.Cosine(q.Concept, peer.handler.ContentVector())})
	}
	sort.Slice(scoredPeers, func(i, j int) bool {
		if scoredPeers[i].s != scoredPeers[j].s {
			return scoredPeers[i].s > scoredPeers[j].s
		}
		return scoredPeers[i].id < scoredPeers[j].id
	})
	fanout := q.Fanout
	if fanout <= 0 {
		fanout = 3
	}
	if fanout > len(scoredPeers) {
		fanout = len(scoredPeers)
	}
	for i := 0; i < fanout; i++ {
		n.sendQuery(scoredPeers[i].id, q)
	}
}

func (n *Node) sendQuery(peer int, q QueryMsg) {
	n.Forwarded++
	n.ov.QueryMsgs++
	n.ov.tel.queryMsgs.Inc()
	if sp := n.ov.spans[q.ID]; sp != nil {
		sp.Child("overlay.forward", strconv.Itoa(n.ID)+"→"+strconv.Itoa(peer)).End()
	}
	n.ov.net.Send(sim.Message{
		From: n.ID, To: peer, Kind: "query", Payload: q,
		Size: 64 + 8*len(q.Concept) + len(q.Text),
	})
}

// ResetSeen clears per-query dedup state (between experiment repetitions).
func (ov *Overlay) ResetSeen() {
	for _, n := range ov.nodes {
		n.seenQuery = make(map[string]bool)
	}
}
