package feature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCosineBasics(t *testing.T) {
	v := Vector{1, 0, 0}
	w := Vector{0, 1, 0}
	if c := Cosine(v, v); !almostEq(c, 1, 1e-12) {
		t.Fatalf("self cosine = %v", c)
	}
	if c := Cosine(v, w); !almostEq(c, 0, 1e-12) {
		t.Fatalf("orthogonal cosine = %v", c)
	}
	if c := Cosine(v, Vector{-1, 0, 0}); !almostEq(c, -1, 1e-12) {
		t.Fatalf("opposite cosine = %v", c)
	}
	if c := Cosine(Vector{0, 0}, v); c != 0 {
		t.Fatalf("zero-vector cosine = %v", c)
	}
}

func TestCosineSymmetricAndBounded(t *testing.T) {
	f := func(a, b []float64) bool {
		v, w := Vector(a), Vector(b)
		c1, c2 := Cosine(v, w), Cosine(w, v)
		if math.IsNaN(c1) || c1 < -1 || c1 > 1 {
			return false
		}
		return almostEq(c1, c2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{3, 4}
	v.Normalize()
	if !almostEq(v.Norm(), 1, 1e-12) {
		t.Fatalf("norm after normalize = %v", v.Norm())
	}
	z := Vector{0, 0}
	z.Normalize()
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector should be unchanged")
	}
}

func TestBlend(t *testing.T) {
	v := Vector{1, 0}
	w := Vector{0, 1}
	b := Blend(v, w, 0.25)
	if !almostEq(b[0], 0.75, 1e-12) || !almostEq(b[1], 0.25, 1e-12) {
		t.Fatalf("blend = %v", b)
	}
	// Mismatched lengths: result has the longer length.
	b2 := Blend(Vector{1}, Vector{0, 2}, 0.5)
	if len(b2) != 2 || !almostEq(b2[1], 1, 1e-12) {
		t.Fatalf("blend mismatched = %v", b2)
	}
}

func TestHistogramIntersection(t *testing.T) {
	a := Vector{0.5, 0.5}
	if hi := HistogramIntersection(a, a); !almostEq(hi, 1, 1e-12) {
		t.Fatalf("self intersection = %v", hi)
	}
	b := Vector{1, 0}
	c := Vector{0, 1}
	if hi := HistogramIntersection(b, c); hi != 0 {
		t.Fatalf("disjoint intersection = %v", hi)
	}
}

func TestHistogramIntersectionBoundedProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		v := make(Vector, len(a))
		w := make(Vector, len(b))
		for i, x := range a {
			v[i] = float64(x)
		}
		for i, x := range b {
			w[i] = float64(x)
		}
		hi := HistogramIntersection(v, w)
		return hi >= 0 && hi <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestJaccard(t *testing.T) {
	if j := Jaccard([]string{"a", "b"}, []string{"a", "b"}); !almostEq(j, 1, 1e-12) {
		t.Fatalf("identical jaccard = %v", j)
	}
	if j := Jaccard([]string{"a"}, []string{"b"}); j != 0 {
		t.Fatalf("disjoint jaccard = %v", j)
	}
	if j := Jaccard([]string{"a", "b"}, []string{"b", "c"}); !almostEq(j, 1.0/3, 1e-12) {
		t.Fatalf("overlap jaccard = %v", j)
	}
	// Duplicates must not inflate.
	if j := Jaccard([]string{"a", "a"}, []string{"a"}); !almostEq(j, 1, 1e-12) {
		t.Fatalf("duplicate jaccard = %v", j)
	}
	if j := Jaccard(nil, nil); j != 0 {
		t.Fatalf("empty jaccard = %v", j)
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	top := TopK(scores, 3)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0] != 1 || top[1] != 3 || top[2] != 2 {
		t.Fatalf("topk = %v (ties must break by index)", top)
	}
	if got := TopK(scores, 100); len(got) != len(scores) {
		t.Fatal("k beyond length should clamp")
	}
}

func TestMetricSimilarityBounded(t *testing.T) {
	metrics := []Metric{MetricCosine, MetricHistogram, MetricInvL1}
	f := func(a, b []uint8) bool {
		v := make(Vector, len(a))
		w := make(Vector, len(b))
		for i, x := range a {
			v[i] = float64(x) - 128
		}
		for i, x := range b {
			w[i] = float64(x) - 128
		}
		for _, m := range metrics {
			s := m.Similarity(v, w)
			if math.IsNaN(s) || s < 0 || s > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricString(t *testing.T) {
	if MetricCosine.String() != "cosine" || MetricHistogram.String() != "histogram" || MetricInvL1.String() != "invL1" {
		t.Fatal("metric names wrong")
	}
}

// referenceCosine is Cosine as it was before CosineNorms carried it: both
// norms computed in the call.
func referenceCosine(v, w Vector) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	c := v.Dot(w) / (nv * nw)
	if math.IsNaN(c) {
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

// TestCosineNormsMatchesCosine: a score computed from norms held beside the
// vectors — the query's taken once, each stored vector's taken when it was
// stored — has the bits of one computed from scratch, on random vectors and
// on every case Cosine guards.
func TestCosineNormsMatchesCosine(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	vec := func(n int, scale float64) Vector {
		v := make(Vector, n)
		for i := range v {
			v[i] = r.NormFloat64() * scale
		}
		return v
	}
	huge := math.MaxFloat64 / 2
	pairs := [][2]Vector{
		{{0, 0, 0}, {1, 2, 3}},               // zero vector
		{{1, 2, 3}, {}},                      // empty vector
		{nil, nil},                           //
		{{huge, huge}, {huge, huge}},         // Dot and Norm overflow: Inf/Inf is NaN, scored 0
		{{huge, 1}, {1, huge}},               // the product of the norms overflows: x/Inf
		{{1e-200, 1e-200}, {1e-200, 1e-200}}, // the norms underflow to 0
		{{0.1, 0.2, 0.3}, {0.1, 0.2, 0.3}},   // parallel: the quotient may round past 1
		{{0.1, 0.2, 0.3}, {-0.1, -0.2, -0.3}},
		{{3, 4}, {3, 4, 100, -7}}, // unequal lengths: Dot over the prefix, each norm over its own
		{{math.NaN(), 1}, {1, 1}},
	}
	for i := 0; i < 3000; i++ {
		n := 1 + r.Intn(40)
		v, w := vec(n, 1), vec(n-r.Intn(2), math.Pow(10, float64(r.Intn(7)-3)))
		if r.Intn(10) == 0 {
			w = v.Clone().Scale(r.Float64() * 3) // many near ±1, where the clamp decides
		}
		pairs = append(pairs, [2]Vector{v, w})
	}
	for _, p := range pairs {
		v, w := p[0], p[1]
		want := referenceCosine(v, w)
		nv, nw := v.Norm(), w.Norm()
		for name, got := range map[string]float64{"CosineNorms": CosineNorms(v, w, nv, nw), "Cosine": Cosine(v, w)} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s(%v, %v) = %x, reference %x", name, v, w, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}
