package profile

import (
	"strings"
	"sync"

	"repro/internal/feature"
	"repro/internal/uncertainty"
)

// Online profile learning: "profiling techniques need to be developed that
// will observe users during their normal interaction with the system,
// interpret their actions appropriately, and formulate their individual
// profiles accordingly" (§5). The Learner folds interaction events into a
// profile with per-action evidence weights and exponential forgetting.

// EventType classifies an observed interaction.
type EventType int

// Interaction event types, ordered roughly by evidence strength.
const (
	EventSkip EventType = iota // shown but ignored — weak negative
	EventClick
	EventDwell // read for a while
	EventSave  // stored into the personal information base
	EventAnnotate
	EventQuery // issued a query with these terms
)

// weight maps event types to evidence weights; negative repels.
func (e EventType) weight() float64 {
	switch e {
	case EventSkip:
		return -0.2
	case EventClick:
		return 0.4
	case EventDwell:
		return 0.7
	case EventSave:
		return 1.0
	case EventAnnotate:
		return 1.2
	case EventQuery:
		return 0.5
	default:
		return 0
	}
}

// Event is one observed interaction.
type Event struct {
	Type    EventType
	Concept feature.Vector // concept vector of the object involved
	Terms   []string       // tokens of the object or query
	Source  string         // originating source, for trust updates
	// Satisfied marks whether the source interaction was satisfactory
	// (meaningful for Source != ""). Skips count as unsatisfactory.
	Satisfied bool
}

// Learner updates profiles from events.
type Learner struct {
	// InterestRate is the blend rate toward an event's concept vector per
	// unit of event weight.
	InterestRate float64
	// TermRate is the additive affinity step per unit weight.
	TermRate float64
	// TermDecay multiplies all affinities per event (forgetting).
	TermDecay float64

	mu    sync.Mutex
	terms map[string]string // every term learned, as the learner's own copy
}

// NewLearner returns a learner with standard rates.
func NewLearner() *Learner {
	return &Learner{InterestRate: 0.08, TermRate: 0.25, TermDecay: 0.999}
}

// Observe folds one event into the profile.
func (l *Learner) Observe(p *Profile, ev Event) {
	w := ev.Type.weight()
	if w != 0 && len(ev.Concept) > 0 {
		rate := l.InterestRate * w
		if rate > 0 {
			p.Interests = feature.Blend(p.Interests, ev.Concept, clampRate(rate))
		} else {
			// Negative evidence: move away by blending with the negation.
			neg := ev.Concept.Clone().Scale(-1)
			p.Interests = feature.Blend(p.Interests, neg, clampRate(-rate))
		}
	}
	if l.TermDecay > 0 && l.TermDecay < 1 {
		for t := range p.TermAffinity {
			p.TermAffinity[t] *= l.TermDecay
		}
	}
	// Event terms may alias a document's text (feature.Tokenize's do), and a
	// map assignment stores the key it is given even over an equal one: the
	// profile is keyed by the learner's own copy of each term.
	l.mu.Lock()
	for _, t := range ev.Terms {
		own, ok := l.terms[t]
		if !ok {
			if l.terms == nil {
				l.terms = make(map[string]string)
			}
			own = strings.Clone(t)
			l.terms[own] = own
		}
		p.TermAffinity[own] += l.TermRate * w
	}
	l.mu.Unlock()
	if ev.Source != "" {
		b, ok := p.SourceTrust[ev.Source]
		if !ok {
			b = uncertainty.NewBelief()
		}
		p.SourceTrust[ev.Source] = b.Observe(ev.Satisfied)
	}
	p.Evidence++
}

// ObserveAll folds a batch of events.
func (l *Learner) ObserveAll(p *Profile, evs []Event) {
	for _, ev := range evs {
		l.Observe(p, ev)
	}
}

func clampRate(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}
