// Package profile implements the user models the paper's Personalization
// section calls for: profiles capturing interests, quality perceptions,
// source trust, QoS trade-off preferences, risk attitude, and negotiation
// style; profiling techniques that learn them from observed interaction;
// merging of per-source partial profiles into one cohesive profile; and a
// profile store with retrieval of relevant parts.
package profile

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/feature"
	"repro/internal/qos"
	"repro/internal/uncertainty"
)

// Profile is one user's model. Every aspect of agora interaction reads some
// part of it: query interpretation (Interests, TermAffinity), source
// selection (SourceTrust), optimization (Weights, Risk), negotiation
// (Style), and interaction (Modality).
type Profile struct {
	UserID string
	// Interests is the user's position in concept space, learned from the
	// objects they engage with.
	Interests feature.Vector
	// TermAffinity scores vocabulary terms the user has shown (dis)interest
	// in; positive = attraction, negative = aversion.
	TermAffinity map[string]float64
	// SourceTrust holds per-source quality beliefs.
	SourceTrust map[string]uncertainty.BetaBelief
	// Weights are the user's QoS trade-off preferences.
	Weights qos.Weights
	// Risk is the user's attitude toward uncertain outcomes.
	Risk uncertainty.RiskAttitude
	// Style names the user's negotiation tactic family ("boulware",
	// "linear", "conceder", "tit-for-tat") with an aggressiveness knob.
	Style NegotiationStyle
	// Modality records preferred interaction modes as relative frequencies.
	Modality ModalityPrefs
	// Variants are context-conditioned overrides keyed by context label;
	// the ctxmodel package decides which (if any) is active.
	Variants map[string]*Variant
	// Evidence counts the interactions absorbed (merge weighting).
	Evidence float64
}

// NegotiationStyle captures how a user bargains.
type NegotiationStyle struct {
	Tactic         string
	Aggressiveness float64 // 0 = meek, 1 = maximally stubborn
}

// ModalityPrefs are relative frequencies of interaction modes.
type ModalityPrefs struct {
	Query  float64
	Browse float64
	Feed   float64
}

// Variant is a context-conditioned partial override of the profile: nil
// fields inherit from the base profile.
type Variant struct {
	Label     string
	Interests feature.Vector
	Weights   *qos.Weights
}

// New returns an empty profile for a user with balanced defaults.
func New(userID string, conceptDim int) *Profile {
	return &Profile{
		UserID:       userID,
		Interests:    make(feature.Vector, conceptDim),
		TermAffinity: make(map[string]float64),
		SourceTrust:  make(map[string]uncertainty.BetaBelief),
		Weights:      qos.DefaultWeights(),
		Risk:         uncertainty.Neutral(),
		Modality:     ModalityPrefs{Query: 1, Browse: 1, Feed: 1},
		Variants:     make(map[string]*Variant),
	}
}

// Clone deep-copies the profile.
func (p *Profile) Clone() *Profile {
	cp := *p
	cp.Interests = p.Interests.Clone()
	cp.TermAffinity = make(map[string]float64, len(p.TermAffinity))
	for k, v := range p.TermAffinity {
		cp.TermAffinity[k] = v
	}
	cp.SourceTrust = make(map[string]uncertainty.BetaBelief, len(p.SourceTrust))
	for k, v := range p.SourceTrust {
		cp.SourceTrust[k] = v
	}
	cp.Variants = make(map[string]*Variant, len(p.Variants))
	for k, v := range p.Variants {
		if v == nil { // ActiveView reads a nil variant as absent: it stays nil
			cp.Variants[k] = nil
			continue
		}
		vv := *v
		vv.Interests = v.Interests.Clone()
		if v.Weights != nil {
			w := *v.Weights
			vv.Weights = &w
		}
		cp.Variants[k] = &vv
	}
	return &cp
}

// ActiveView returns the effective (interests, weights) under a context
// label; an unknown or empty label yields the base profile.
func (p *Profile) ActiveView(contextLabel string) (feature.Vector, qos.Weights) {
	v, ok := p.Variants[contextLabel]
	if !ok || v == nil {
		return p.Interests, p.Weights
	}
	interests := p.Interests
	if len(v.Interests) > 0 {
		interests = v.Interests
	}
	weights := p.Weights
	if v.Weights != nil {
		weights = *v.Weights
	}
	return interests, weights
}

// Trust returns the posterior-mean trust for a source (0.5 unknown).
func (p *Profile) Trust(source string) float64 {
	if b, ok := p.SourceTrust[source]; ok {
		return b.Mean()
	}
	return 0.5
}

// PersonalScore combines a base relevance score with the profile's interest
// match: (1-gamma)*base + gamma*interest-cosine, both in [0,1]. gamma is the
// personalization strength experiment E6 sweeps.
func (p *Profile) PersonalScore(base float64, docConcept feature.Vector, gamma float64) float64 {
	if gamma <= 0 {
		return base
	}
	if gamma > 1 {
		gamma = 1
	}
	interest := feature.Cosine(p.Interests, docConcept)
	if interest < 0 {
		interest = 0
	}
	return (1-gamma)*base + gamma*interest
}

// TermBoost is the multiplicative boost, in [0.5, 1.5], a profile's term
// affinities give one document: the mean affinity over the document's tokens
// that carry one — Σ tf·a(t) / Σ tf over its distinct terms t, in ascending
// order — squashed by 1 + 0.5·tanh; 1 when no token carries one. It is fed
// the terms with their counts, one at a time (Add has the shape
// docstore.Hit.Terms calls), so a caller allocates nothing per document.
type TermBoost struct {
	affinity map[string]float64
	sum      float64
	n        int
}

// TermBoost starts p's boost of one document.
func (p *Profile) TermBoost() TermBoost { return TermBoost{affinity: p.TermAffinity} }

// Add feeds the document's next distinct term, which occurs tf times in it.
func (b *TermBoost) Add(term string, tf int) {
	if a, ok := b.affinity[term]; ok {
		b.sum += float64(tf) * a
		b.n += tf
	}
}

// Value is the boost of the terms added so far.
func (b *TermBoost) Value() float64 {
	if b.n == 0 {
		return 1
	}
	return 1 + 0.5*math.Tanh(b.sum/float64(b.n))
}

// TopTerms returns the k terms with the highest affinity.
func (p *Profile) TopTerms(k int) []string {
	type ta struct {
		t string
		a float64
	}
	all := make([]ta, 0, len(p.TermAffinity))
	for t, a := range p.TermAffinity {
		all = append(all, ta{t, a})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].a != all[j].a {
			return all[i].a > all[j].a
		}
		return all[i].t < all[j].t
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].t
	}
	return out
}

// Similarity measures profile closeness in [0,1]: cosine of interests
// blended with term-affinity agreement. Socialization uses it for affinity.
func Similarity(a, b *Profile) float64 {
	ci := feature.Cosine(a.Interests, b.Interests)
	if ci < 0 {
		ci = 0
	}
	// Term agreement: the share of the terms both profiles hold on which
	// they agree in sign.
	var agree, total float64
	for t, av := range a.TermAffinity {
		bv, ok := b.TermAffinity[t]
		if !ok {
			continue
		}
		total++
		if (av > 0) == (bv > 0) {
			agree++
		}
	}
	if total == 0 {
		return ci
	}
	return 0.7*ci + 0.3*(agree/total)
}

// String summarizes the profile.
func (p *Profile) String() string {
	return fmt.Sprintf("profile(%s, evidence=%.0f, terms=%d, sources=%d, variants=%d)",
		p.UserID, p.Evidence, len(p.TermAffinity), len(p.SourceTrust), len(p.Variants))
}
