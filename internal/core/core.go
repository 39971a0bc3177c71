// Package core assembles the Open Agora: independent provider nodes with
// their own document stores, economics, and hidden reliability; consumer
// sessions that interpret queries through profiles and contexts, optimize
// source selection under uncertainty, negotiate SLA contracts, execute,
// settle, learn, and fuse — the full information-shopping loop of the
// paper, end to end.
package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/feedsys"
	"repro/internal/negotiate"
	"repro/internal/optimizer"
	"repro/internal/profile"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/social"
	"repro/internal/telemetry"
	"repro/internal/uncertainty"
)

// Config sizes an Agora.
type Config struct {
	Seed       int64
	ConceptDim int
	// Telemetry receives runtime counters, latency histograms, and
	// per-query trace spans from every session pipeline. Nil disables
	// instrumentation: the hot path then performs only nil-receiver no-ops
	// and allocates nothing extra.
	Telemetry *telemetry.Registry
}

// pipelineTel caches resolved instruments once per Agora so the ask hot
// path is plain atomic ops (or nil no-ops), never registry map lookups.
type pipelineTel struct {
	reg               *telemetry.Registry
	asks              *telemetry.Counter
	askErrors         *telemetry.Counter
	negotiateFailures *telemetry.Counter
	executeFailures   *telemetry.Counter
	hedges            *telemetry.Counter
	hedgeWins         *telemetry.Counter
	deadlineTimeouts  *telemetry.Counter
	askLat            *telemetry.Histogram
	planLat           *telemetry.Histogram
	negotiateLat      *telemetry.Histogram
	executeLat        *telemetry.Histogram
	mergeLat          *telemetry.Histogram
}

func newPipelineTel(reg *telemetry.Registry) pipelineTel {
	if reg == nil {
		return pipelineTel{}
	}
	return pipelineTel{
		reg:               reg,
		asks:              reg.Counter("core.ask"),
		askErrors:         reg.Counter("core.ask.errors"),
		negotiateFailures: reg.Counter("core.negotiate.failures"),
		executeFailures:   reg.Counter("core.execute.failures"),
		hedges:            reg.Counter("core.execute.hedges"),
		hedgeWins:         reg.Counter("core.execute.hedge_wins"),
		deadlineTimeouts:  reg.Counter("core.execute.deadline_timeouts"),
		askLat:            reg.Histogram("core.ask.latency"),
		planLat:           reg.Histogram("core.plan.latency"),
		negotiateLat:      reg.Histogram("core.negotiate.latency"),
		executeLat:        reg.Histogram("core.execute.latency"),
		mergeLat:          reg.Histogram("core.merge.latency"),
	}
}

// Agora is the marketplace: the registry of provider nodes plus the shared
// social fabric (profiles, graph, ACLs) and the feed bus.
type Agora struct {
	mu sync.RWMutex
	// kmu serializes every access to the simulation kernel. The kernel is
	// deliberately single-threaded (see internal/sim); an ask reads and
	// advances the clock while providers may ingest (and stamp feed items
	// with the clock) on other goroutines, so all clock reads and advances
	// funnel through now() and advance(). Lock order: a.mu before a.kmu;
	// node.mu is a leaf.
	kmu      sync.Mutex
	cfg      Config
	kernel   *sim.Kernel
	nodes    map[string]*Node
	order    []string
	Profiles *profile.Store
	Graph    *social.Graph
	ACL      *social.ACL
	Feeds    *feedsys.Matcher
	rng      *rand.Rand
	seq      uint64
	disc     *discovery
	tel      pipelineTel
}

// New creates an empty agora on a fresh simulation kernel.
func New(cfg Config) *Agora {
	if cfg.ConceptDim <= 0 {
		cfg.ConceptDim = 32
	}
	k := sim.NewKernel(cfg.Seed)
	return &Agora{
		cfg:      cfg,
		kernel:   k,
		nodes:    make(map[string]*Node),
		Profiles: profile.NewStore(),
		Graph:    social.NewGraph(),
		ACL:      social.NewACL(),
		Feeds:    feedsys.NewMatcher(cfg.ConceptDim, cfg.Seed+99),
		rng:      k.Stream("core"),
		tel:      newPipelineTel(cfg.Telemetry),
	}
}

// Telemetry returns the registry the agora reports into (nil if disabled).
func (a *Agora) Telemetry() *telemetry.Registry { return a.tel.reg }

// Kernel exposes the simulation kernel (virtual clock). The kernel is not
// safe for concurrent use; callers driving it directly must not overlap
// with in-flight Asks (the pipeline serializes its own access internally).
func (a *Agora) Kernel() *sim.Kernel { return a.kernel }

// now reads the virtual clock under the kernel lock.
func (a *Agora) now() sim.Time {
	a.kmu.Lock()
	defer a.kmu.Unlock()
	return a.kernel.Now()
}

// advance moves virtual time forward by d, running any events that come
// due, under the kernel lock.
func (a *Agora) advance(d time.Duration) {
	if d <= 0 {
		return
	}
	a.kmu.Lock()
	defer a.kmu.Unlock()
	a.kernel.RunFor(d)
}

// ConceptDim returns the concept-space dimensionality.
func (a *Agora) ConceptDim() int { return a.cfg.ConceptDim }

// NodeEconomics are a provider's market parameters. CostBase and CostEffort
// price the seller's utility, which is built once, when the node is added.
type NodeEconomics struct {
	CostBase    float64
	CostEffort  float64
	Premium     float64 // SLA premium multiplier it asks for
	PenaltyRate float64 // compensation rate it signs up to
	Tactic      negotiate.Tactic
}

// DefaultEconomics returns middle-of-the-road provider economics.
func DefaultEconomics() NodeEconomics {
	return NodeEconomics{CostBase: 0.3, CostEffort: 1.2, Premium: 1.3, PenaltyRate: 0.5, Tactic: negotiate.Linear()}
}

// NodeBehavior is the hidden truth about a provider that consumers only
// learn through interaction (the paper's uncertainty about sources).
type NodeBehavior struct {
	// Reliability is the probability a signed contract is honored in
	// full; otherwise the node delivers a degraded (partial, slow) answer.
	Reliability float64
	// BaseLatency and LatencyJitter shape response times.
	BaseLatency   time.Duration
	LatencyJitter float64 // lognormal sigma
	// Availability is the probability the node responds at all.
	Availability float64
}

// DefaultBehavior returns a well-behaved node.
func DefaultBehavior() NodeBehavior {
	return NodeBehavior{Reliability: 0.9, BaseLatency: 200 * time.Millisecond, LatencyJitter: 0.3, Availability: 0.98}
}

// Node is one independent information system participating in the agora.
type Node struct {
	Name     string
	Store    *docstore.Store
	Econ     NodeEconomics
	Behavior NodeBehavior
	agora    *Agora
	sellerU  negotiate.Utility // Econ's cost model, boxed once
	// mu guards contentVec: discovery reads it concurrently with ingest
	// churn.
	mu         sync.RWMutex
	contentVec feature.Vector
}

// AddNode registers a provider with an empty in-memory store.
func (a *Agora) AddNode(name string, econ NodeEconomics, beh NodeBehavior) (*Node, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.nodes[name]; ok {
		return nil, fmt.Errorf("core: node %q already exists", name)
	}
	st, err := docstore.Open(docstore.Options{})
	if err != nil {
		return nil, err
	}
	n := &Node{
		Name: name, Store: st, Econ: econ, Behavior: beh, agora: a,
		sellerU:    negotiate.SellerUtility{Cost: negotiate.StandardCost(econ.CostBase, econ.CostEffort), Scale: 8},
		contentVec: make(feature.Vector, a.cfg.ConceptDim),
	}
	a.nodes[name] = n
	a.order = append(a.order, name)
	a.joinDiscovery(n)
	return n, nil
}

// Node returns a registered node, or nil.
func (a *Agora) Node(name string) *Node {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.nodes[name]
}

// Nodes returns node names in registration order.
func (a *Agora) Nodes() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return append([]string(nil), a.order...)
}

// nextID mints a unique id with the given prefix: "<prefix>-<seq>".
func (a *Agora) nextID(prefix string) string {
	a.mu.Lock()
	a.seq++
	seq := a.seq
	a.mu.Unlock()
	var buf [32]byte
	b := strconv.AppendUint(append(append(buf[:0], prefix...), '-'), seq, 10)
	return string(b)
}

// Ingest stores a document at the node, updates its advertisement, and
// publishes it on the feed bus (so standing subscriptions see new content —
// the information-initiated modality): an IngestBatch of one.
func (n *Node) Ingest(d *docstore.Document) error {
	return n.IngestBatch([]*docstore.Document{d})
}

// IngestBatch stores a batch of documents through one docstore commit
// window (one WAL append run, one fsync), then updates the advertisement
// and publishes every document on the feed bus in batch order. Semantics
// match sequential Ingest calls; on error nothing from the batch is stored.
func (n *Node) IngestBatch(docs []*docstore.Document) error {
	if len(docs) == 0 {
		return nil
	}
	stamped := make([]*docstore.Document, len(docs))
	for i, d := range docs {
		if d.Provenance == "" {
			d = d.Clone()
			d.Provenance = n.Name
		}
		stamped[i] = d
	}
	if err := n.Store.PutBatch(stamped); err != nil {
		return err
	}
	n.mu.Lock()
	for _, d := range stamped {
		if len(d.Concept) > 0 {
			n.contentVec.Add(d.Concept)
		}
	}
	n.mu.Unlock()
	for _, d := range stamped {
		n.agora.Feeds.Publish(feedsys.Item{
			ID: d.ID, FeedID: n.Name, Source: n.Name, Text: d.Title + " " + d.Text,
			Concept: d.Concept, At: n.agora.now(),
		})
	}
	return nil
}

// ContentVector advertises the node's aggregate content direction.
func (n *Node) ContentVector() feature.Vector {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.contentVec.Clone().Normalize()
}

// TopicCount returns the advertised number of documents for a topic: the
// live documents the store holds under it (the node's "shop window").
func (n *Node) TopicCount(topic string) int { return n.Store.TopicCount(topic) }

// TotalDocs returns the advertised corpus size: the live documents the
// store holds.
func (n *Node) TotalDocs() int { return n.Store.Len() }

// seller builds the node's negotiator over a package grid derived from the
// consumer's ask.
func (n *Node) seller(grid []qos.Vector) negotiate.Negotiator {
	tac := n.Econ.Tactic
	if tac == nil {
		tac = negotiate.Linear()
	}
	return negotiate.Negotiator{
		Name:        n.Name,
		U:           n.sellerU,
		Reservation: 0.05,
		Tactic:      tac,
		Candidates:  grid,
	}
}

// available samples whether the node responds right now.
func (n *Node) available(r *rand.Rand) bool {
	return sim.Bernoulli(r, n.Behavior.Availability)
}

// sampleLatency draws a response latency for this interaction.
func (n *Node) sampleLatency(r *rand.Rand) time.Duration {
	return sim.LogNormal(r, n.Behavior.BaseLatency, n.Behavior.LatencyJitter)
}

// EstimateFor builds the optimizer's view of this node for a query about
// the given topics, blending the node's advertisement with the consumer's
// learned beliefs (trust ledger). totalForTopics is the corpus-wide count
// for those topics (coverage denominator).
func (n *Node) EstimateFor(topics []string, totalForTopics int, trust uncertainty.BetaBelief, latencyPrior uncertainty.Interval) optimizer.SourceEstimate {
	holding := 0
	if len(topics) == 0 {
		holding = n.TotalDocs()
	} else {
		for _, t := range topics {
			holding += n.TopicCount(t)
		}
	}
	cov := 0.0
	if totalForTopics > 0 {
		cov = float64(holding) / float64(totalForTopics)
		if cov > 1 {
			cov = 1
		}
	}
	price := n.Econ.CostBase + n.Econ.CostEffort*0.8
	return optimizer.SourceEstimate{
		Source:      n.Name,
		Coverage:    uncertainty.PriorBelief(cov, 12),
		Price:       uncertainty.MakeInterval(price*0.7, price*1.5),
		Latency:     latencyPrior,
		Trust:       trust,
		Premium:     n.Econ.Premium,
		PenaltyRate: n.Econ.PenaltyRate,
	}
}
