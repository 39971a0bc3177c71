// Package feature implements feature extraction and similarity matching for
// the heterogeneous objects an Open Agora trades in: text documents,
// (simulated) images, and compound objects mixing both.
//
// The paper's Uncertainty section asks which feature sets should be used to
// match a query object against source objects, how two objects of the same
// type match, how compound objects match, and how objects of *different*
// types can be compared (an image of a jewel against an article about
// costumes). This package provides the mechanisms: dense vectors with the
// classic metrics, text vectorization, simulated visual features, greedy
// bipartite matching for compound objects, and a shared concept space for
// cross-modal comparison.
package feature

import (
	"fmt"
	"math"
	"sort"
)

// Vector is a dense feature vector.
type Vector []float64

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Dot returns the inner product of v and w. Mismatched lengths use the
// shorter prefix, which lets truncated projections compare cheaply.
func (v Vector) Dot(w Vector) float64 {
	n := len(v)
	if len(w) < n {
		n = len(w)
	}
	var s float64
	for i := 0; i < n; i++ {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// L1 returns the Manhattan distance between v and w.
func (v Vector) L1(w Vector) float64 {
	n := len(v)
	if len(w) > n {
		n = len(w)
	}
	var s float64
	for i := 0; i < n; i++ {
		var a, b float64
		if i < len(v) {
			a = v[i]
		}
		if i < len(w) {
			b = w[i]
		}
		s += math.Abs(a - b)
	}
	return s
}

// Cosine returns the cosine similarity of v and w in [-1, 1]; zero vectors
// yield 0.
func Cosine(v, w Vector) float64 {
	return CosineNorms(v, w, v.Norm(), w.Norm())
}

// CosineNorms is Cosine for a caller that already holds nv = v.Norm() and
// nw = w.Norm() — an index scoring one query against stored vectors computes
// each norm once instead of once per pair. It is the one cosine expression,
// so the result has Cosine's bits.
func CosineNorms(v, w Vector, nv, nw float64) float64 {
	if nv == 0 || nw == 0 {
		return 0
	}
	c := v.Dot(w) / (nv * nw)
	if math.IsNaN(c) { // overflow in Dot or Norm on extreme magnitudes
		return 0
	}
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return c
}

// Normalize scales v to unit norm in place and returns it. Zero vectors are
// left unchanged.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	for i := range v {
		v[i] /= n
	}
	return v
}

// Add accumulates w into v (element-wise, over the shared prefix) and
// returns v.
func (v Vector) Add(w Vector) Vector {
	n := len(v)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		v[i] += w[i]
	}
	return v
}

// Scale multiplies v by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Blend returns (1-alpha)*v + alpha*w as a new vector sized to the longer
// input. It is the profile-update primitive: exponential decay toward new
// evidence.
func Blend(v, w Vector, alpha float64) Vector {
	n := len(v)
	if len(w) > n {
		n = len(w)
	}
	out := make(Vector, n)
	for i := 0; i < n; i++ {
		var a, b float64
		if i < len(v) {
			a = v[i]
		}
		if i < len(w) {
			b = w[i]
		}
		out[i] = (1-alpha)*a + alpha*b
	}
	return out
}

// HistogramIntersection returns the histogram-intersection similarity of two
// non-negative histograms, normalized to [0,1] by the smaller mass. It is
// the classic visual-feature match metric.
func HistogramIntersection(v, w Vector) float64 {
	n := len(v)
	if len(w) < n {
		n = len(w)
	}
	var inter, mv, mw float64
	for i := 0; i < n; i++ {
		inter += math.Min(v[i], w[i])
	}
	for _, x := range v {
		mv += x
	}
	for _, x := range w {
		mw += x
	}
	m := math.Min(mv, mw)
	if m == 0 {
		return 0
	}
	return inter / m
}

// Jaccard returns the Jaccard similarity of two term sets.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	set := make(map[string]bool, len(a))
	for _, t := range a {
		set[t] = true
	}
	inter := 0
	seen := make(map[string]bool, len(b))
	for _, t := range b {
		if seen[t] {
			continue
		}
		seen[t] = true
		if set[t] {
			inter++
		}
	}
	union := len(set) + len(seen) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Metric identifies a similarity function over vectors.
type Metric int

// Supported vector metrics.
const (
	MetricCosine Metric = iota
	MetricHistogram
	MetricInvL1 // 1/(1+L1), a bounded distance-to-similarity transform
)

func (m Metric) String() string {
	switch m {
	case MetricCosine:
		return "cosine"
	case MetricHistogram:
		return "histogram"
	case MetricInvL1:
		return "invL1"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// Similarity applies the metric to v and w, returning a value clamped to
// [0,1]: anti-correlated cosine is treated as non-matching (what retrieval
// ranking wants), and histogram intersection of malformed (negative-valued)
// histograms cannot escape the score range.
func (m Metric) Similarity(v, w Vector) float64 {
	switch m {
	case MetricCosine:
		return clampScore(Cosine(v, w))
	case MetricHistogram:
		return clampScore(HistogramIntersection(v, w))
	case MetricInvL1:
		return clampScore(1 / (1 + v.L1(w)))
	default:
		return 0
	}
}

func clampScore(s float64) float64 {
	if s != s || s < 0 { // NaN or negative
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// TopK returns the indices of the k largest values in scores, in descending
// score order, breaking ties by lower index. It copies nothing of the input.
func TopK(scores []float64, k int) []int {
	if k > len(scores) {
		k = len(scores)
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}
