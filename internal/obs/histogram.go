package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram over int64 samples (tick units
// throughout the serving stack). Buckets are cumulative at export time —
// the Prometheus `le` convention — but stored as disjoint atomic cells so
// Observe is wait-free and allocation-free.
type Histogram struct {
	bounds  []int64        // ascending upper bounds; an implicit +Inf follows
	buckets []atomic.Int64 // len(bounds)+1 disjoint cells
	count   atomic.Int64
	sum     atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the average sample, 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// HistogramBucket is one cumulative bucket of a snapshot.
type HistogramBucket struct {
	// LE is the bucket's inclusive upper bound; the final bucket's bound
	// is +Inf and is rendered as such.
	LE int64 `json:"le"`
	// Inf marks the +Inf bucket (LE is meaningless there).
	Inf bool `json:"inf,omitempty"`
	// Count is the cumulative sample count at or below LE.
	Count int64 `json:"count"`
}

// snapshotBuckets renders the cumulative bucket view.
func (h *Histogram) snapshotBuckets() []HistogramBucket {
	out := make([]HistogramBucket, 0, len(h.buckets))
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		b := HistogramBucket{Count: cum}
		if i < len(h.bounds) {
			b.LE = h.bounds[i]
		} else {
			b.Inf = true
		}
		out = append(out, b)
	}
	return out
}

// Snapshot captures the histogram's cumulative buckets, sum and count at
// one instant — the same view the exporters render.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets: h.snapshotBuckets(),
		Sum:     h.Sum(),
		Count:   h.Count(),
		Mean:    h.Mean(),
	}
	s.P50 = BucketQuantile(s, 0.50)
	s.P99 = BucketQuantile(s, 0.99)
	return s
}

// Quantile returns the smallest finite bucket bound covering fraction q
// of the histogram's observations, or 0 when the histogram is empty or
// the quantile lands in the +Inf bucket. It is a bucket-resolution upper
// bound, not an interpolated estimate — good enough for dashboards, and
// honest about what a fixed-bucket histogram actually knows.
func (h *Histogram) Quantile(q float64) int64 {
	return BucketQuantile(HistogramSnapshot{Buckets: h.snapshotBuckets(), Count: h.Count()}, q)
}

// BucketQuantile is Quantile over an exported snapshot, for consumers
// that only hold the JSON view (bench summaries, dashboards).
func BucketQuantile(h HistogramSnapshot, q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	need := int64(math.Ceil(q * float64(h.Count)))
	for _, b := range h.Buckets {
		if !b.Inf && b.Count >= need {
			return b.LE
		}
	}
	return 0
}

// TickBuckets returns the default latency bucket bounds in ticks:
// exponential 1, 2, 4, ... up to 2^(n-1). Channel latencies live in
// [0, d] and effort per message in a small multiple of d, so a dozen
// doublings cover every regime the serving stack runs at.
func TickBuckets(n int) []int64 {
	if n <= 0 {
		n = 12
	}
	out := make([]int64, n)
	v := int64(1)
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}

// MarginBuckets returns deadline-margin bucket bounds in ticks: negative
// doublings (missed deadlines) through zero into positive doublings
// (slack). A sample is "margin = deadline - observed", so negative
// buckets count deadline misses by severity.
func MarginBuckets(n int) []int64 {
	if n <= 0 {
		n = 6
	}
	out := make([]int64, 0, 2*n+1)
	for i := n - 1; i >= 0; i-- {
		out = append(out, -(int64(1) << i))
	}
	out = append(out, 0)
	for i := 0; i < n; i++ {
		out = append(out, int64(1)<<i)
	}
	return out
}
