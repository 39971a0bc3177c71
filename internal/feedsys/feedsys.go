// Package feedsys implements the information-initiated side of the paper's
// Multi-Modal Interaction pillar: continuous feeds (auction catalogs,
// magazine articles) matched against standing, profile-derived
// subscriptions. Iris "immediately establishes a stream to retrieve every
// item from the auction catalog and compare it with material she already
// has" — a Subscription with a concept predicate does exactly that.
//
// Matching uses a counting-based conjunction index over terms plus an LSH
// index over subscription concept vectors; experiment E11 compares it
// against the linear scan baseline.
package feedsys

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/feature"
)

// Item is one event on a feed.
type Item struct {
	ID      string
	FeedID  string
	Source  string
	Text    string
	Concept feature.Vector
	Seq     uint64
	At      time.Duration // virtual publication time
}

// Subscription is a standing interest. Terms is a conjunction (every term
// must occur in the item's text); Concept+Threshold adds a similarity
// predicate. Either part may be empty, but not both.
type Subscription struct {
	ID        string
	Owner     string
	Terms     []string
	Concept   feature.Vector
	Threshold float64
	// Deliver receives matching items. It must not block.
	Deliver func(Item)
}

// Matcher errors.
var (
	ErrEmptySubscription = errors.New("feedsys: subscription has neither terms nor concept")
	ErrDuplicateID       = errors.New("feedsys: duplicate subscription id")
	ErrUnknownID         = errors.New("feedsys: unknown subscription id")
)

// Matcher indexes subscriptions for fast matching. Safe for concurrent use.
type Matcher struct {
	mu sync.RWMutex
	// byTerm maps a term to subscription ids requiring it.
	byTerm map[string]map[string]bool
	subs   map[string]*Subscription
	// conceptIdx indexes concept predicates of subscriptions; ids overlap
	// with subs.
	conceptIdx *feature.LSH
	// conceptOnly lists ids with concept predicates but no terms (checked
	// against every item via the LSH candidates).
	conceptOnly map[string]bool
	// Linear disables the indexes (baseline mode).
	Linear bool

	// Stats
	Published uint64
	Matched   uint64
	// Examined counts the subscriptions Match has held against an item: in
	// Linear mode every one, otherwise only those a term posting or an LSH
	// bucket of the item names.
	Examined atomic.Uint64
}

// NewMatcher returns a matcher for concept vectors of the given dimension.
func NewMatcher(conceptDim int, seed int64) *Matcher {
	return &Matcher{
		byTerm:      make(map[string]map[string]bool),
		subs:        make(map[string]*Subscription),
		conceptIdx:  feature.NewLSH(seed, conceptDim, 8, 8),
		conceptOnly: make(map[string]bool),
	}
}

// Subscribe registers a subscription.
func (m *Matcher) Subscribe(s *Subscription) error {
	if len(s.Terms) == 0 && len(s.Concept) == 0 {
		return ErrEmptySubscription
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.subs[s.ID]; ok {
		return ErrDuplicateID
	}
	cp := *s
	cp.Terms = normalizeTerms(s.Terms)
	m.subs[s.ID] = &cp
	for _, t := range cp.Terms {
		set, ok := m.byTerm[t]
		if !ok {
			set = make(map[string]bool)
			m.byTerm[t] = set
		}
		set[s.ID] = true
	}
	if len(cp.Concept) > 0 {
		m.conceptIdx.Put(s.ID, cp.Concept)
		if len(cp.Terms) == 0 {
			m.conceptOnly[s.ID] = true
		}
	}
	return nil
}

// Unsubscribe removes a subscription by id.
func (m *Matcher) Unsubscribe(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[id]
	if !ok {
		return ErrUnknownID
	}
	delete(m.subs, id)
	for _, t := range s.Terms {
		delete(m.byTerm[t], id)
		if len(m.byTerm[t]) == 0 {
			delete(m.byTerm, t)
		}
	}
	m.conceptIdx.Delete(id)
	delete(m.conceptOnly, id)
	return nil
}

// Len returns the number of live subscriptions.
func (m *Matcher) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.subs)
}

func normalizeTerms(terms []string) []string {
	seen := make(map[string]bool, len(terms))
	var out []string
	for _, t := range terms {
		toks := feature.Tokenize(t)
		for _, tok := range toks {
			if !seen[tok] {
				seen[tok] = true
				out = append(out, tok)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Match returns the subscriptions an item satisfies, sorted by id.
func (m *Matcher) Match(it Item) []*Subscription {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.Linear {
		return m.matchLinear(it)
	}
	tokens := feature.Tokenize(it.Text)
	tokenSet := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		tokenSet[t] = true
	}
	// Counting conjunction: a sub with k terms matches when k of its terms
	// occur (each term counted once thanks to tokenSet).
	counts := make(map[string]int)
	for t := range tokenSet {
		for id := range m.byTerm[t] {
			counts[id]++
		}
	}
	candidates := make(map[string]bool)
	for id, n := range counts {
		if n == len(m.subs[id].Terms) {
			candidates[id] = true
		}
	}
	examined := len(counts)
	// Concept-only subscriptions come from the LSH index.
	if len(m.conceptOnly) > 0 && len(it.Concept) > 0 {
		for _, cand := range m.conceptIdx.Query(it.Concept, -1) {
			if m.conceptOnly[cand.ID] {
				candidates[cand.ID] = true
				examined++
			}
		}
	}
	m.Examined.Add(uint64(examined))
	var out []*Subscription
	for id := range candidates {
		s := m.subs[id]
		if !conceptOK(s, it) {
			continue
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// matchLinear is the exhaustive baseline.
func (m *Matcher) matchLinear(it Item) []*Subscription {
	tokens := feature.Tokenize(it.Text)
	tokenSet := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		tokenSet[t] = true
	}
	m.Examined.Add(uint64(len(m.subs)))
	var out []*Subscription
	for _, s := range m.subs {
		ok := true
		for _, t := range s.Terms {
			if !tokenSet[t] {
				ok = false
				break
			}
		}
		if !ok || !conceptOK(s, it) {
			continue
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func conceptOK(s *Subscription, it Item) bool {
	if len(s.Concept) == 0 {
		return true
	}
	if len(it.Concept) == 0 {
		return false
	}
	return feature.Cosine(s.Concept, it.Concept) >= s.Threshold
}

// Publish matches and delivers an item, returning how many subscriptions it
// reached.
func (m *Matcher) Publish(it Item) int {
	matches := m.Match(it)
	m.mu.Lock()
	m.Published++
	m.Matched += uint64(len(matches))
	m.mu.Unlock()
	for _, s := range matches {
		if s.Deliver != nil {
			s.Deliver(it)
		}
	}
	return len(matches)
}
