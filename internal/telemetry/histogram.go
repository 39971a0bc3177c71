package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram buckets: exponential bounds from 1µs doubling up to ~137s, with
// a final overflow bucket. Fixed at compile time so Observe is a pure
// atomic-add path with no allocation and no locking.
const histBuckets = 28

// bucketBound returns the upper bound (inclusive) of bucket i in seconds.
func bucketBound(i int) float64 {
	return 1e-6 * math.Pow(2, float64(i))
}

// bucketFor returns the index whose bound first covers v (seconds).
func bucketFor(v float64) int {
	if v <= 1e-6 {
		return 0
	}
	// log2(v / 1e-6), rounded up.
	i := int(math.Ceil(math.Log2(v / 1e-6)))
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		return histBuckets - 1 // overflow bucket
	}
	return i
}

// Histogram is a fixed-bucket latency histogram with exact count, sum, min,
// and max, and interpolated quantiles. Each bucket also remembers an
// exemplar — the trace ID of its most recent traced observation — linking
// the metric back to a retained trace: an operator seeing a fat p99 bucket
// on /metrics can jump straight to /debug/trace?id= for a real instance.
// All methods are safe for concurrent use and no-ops on a nil receiver.
type Histogram struct {
	count     atomic.Uint64
	sumBits   atomic.Uint64 // float64 seconds, CAS-accumulated
	minBits   atomic.Uint64 // float64, CAS-min (seeded +Inf)
	maxBits   atomic.Uint64 // float64, CAS-max (seeded -Inf)
	buckets   [histBuckets]atomic.Uint64
	exemplars [histBuckets]exemplarSlot
}

// Exemplar links one histogram bucket back to the trace that most recently
// landed in it. Value is the observed sample in seconds.
type Exemplar struct {
	TraceID TraceID `json:"trace_id"`
	Value   float64 `json:"value"`
}

// exemplarSlot holds one bucket's exemplar in place; the mutex keeps a
// reader from seeing an (id, value) pair no observation wrote.
type exemplarSlot struct {
	mu sync.Mutex
	ex Exemplar
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records a duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.ObserveSeconds(d.Seconds())
}

// ObserveSeconds records a sample measured in seconds. Negative and NaN
// samples are dropped (a wall-clock step backwards must not corrupt min).
func (h *Histogram) ObserveSeconds(v float64) {
	if h == nil || math.IsNaN(v) || v < 0 {
		return
	}
	h.buckets[bucketFor(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveExemplar records a duration and, when id is nonzero, stamps the
// covering bucket's exemplar with the trace that produced the sample.
func (h *Histogram) ObserveExemplar(d time.Duration, id TraceID) {
	if h == nil {
		return
	}
	h.ObserveSecondsExemplar(d.Seconds(), id)
}

// ObserveSecondsExemplar is ObserveExemplar for a sample in seconds.
func (h *Histogram) ObserveSecondsExemplar(v float64, id TraceID) {
	if h == nil || math.IsNaN(v) || v < 0 {
		return
	}
	h.ObserveSeconds(v)
	if id != 0 {
		e := &h.exemplars[bucketFor(v)]
		e.mu.Lock()
		e.ex = Exemplar{TraceID: id, Value: v}
		e.mu.Unlock()
	}
}

// Bucket is one cumulative bucket in Prometheus exposition order. The
// final bucket's bound is +Inf and its count equals the total count.
type Bucket struct {
	UpperBound float64 // seconds; math.Inf(1) for the last bucket
	Count      uint64  // cumulative: samples ≤ UpperBound
	Exemplar   *Exemplar
}

// Buckets returns the cumulative exposition view of the histogram.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	out := make([]Bucket, histBuckets)
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		out[i] = Bucket{UpperBound: bucketBound(i), Count: cum}
		e := &h.exemplars[i]
		e.mu.Lock()
		if ex := e.ex; ex.TraceID != 0 {
			out[i].Exemplar = &ex
		}
		e.mu.Unlock()
	}
	// The top bucket is the overflow bucket: everything lands at or below
	// it, which is exactly Prometheus's le="+Inf".
	out[histBuckets-1].UpperBound = math.Inf(1)
	return out
}

// Count returns the number of samples (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistogramSnapshot is a point-in-time view of a histogram. All values are
// seconds.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot captures the histogram. Quantiles are interpolated within the
// matching bucket and clamped to the exact observed [Min, Max], which
// guarantees P50 ≤ P95 ≤ P99 ≤ Max.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var counts [histBuckets]uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sumBits.Load()),
		Min:   math.Float64frombits(h.minBits.Load()),
		Max:   math.Float64frombits(h.maxBits.Load()),
	}
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
		return s
	}
	s.Mean = s.Sum / float64(s.Count)
	s.P50 = quantile(counts[:], s.Count, 0.50, s.Min, s.Max)
	s.P95 = quantile(counts[:], s.Count, 0.95, s.Min, s.Max)
	s.P99 = quantile(counts[:], s.Count, 0.99, s.Min, s.Max)
	return s
}

// quantile estimates the q-quantile from bucket counts: linear
// interpolation across the rank positions of the covering bucket, clamped
// to the exact observed extrema.
func quantile(counts []uint64, total uint64, q, min, max float64) float64 {
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bucketBound(i - 1)
		}
		hi := bucketBound(i)
		frac := 0.0
		if c > 0 {
			frac = (rank - prev) / float64(c)
		}
		v := lo + (hi-lo)*frac
		if v < min {
			v = min
		}
		if v > max {
			v = max
		}
		return v
	}
	return max
}
