// Package metrics is the observability substrate of the cluster:
// allocation-free atomic counters, gauges, and fixed-bucket log₂
// latency histograms with quantile extraction. The hot path (Inc,
// Add, Observe) takes no locks and allocates nothing; all aggregation
// happens snapshot-on-read.
//
// The paper's headline claims are quantitative — "1-3 ms latency at
// very high throughput" (§1), replication ≪ persistence on the
// durability ladder (§2.3.2) — and a memory-first system is operated
// by watching residency, drain queues, and stream lag. This package
// is what the rest of the system reports those numbers through; the
// REST layer exposes it as Prometheus text (`GET /metrics`) and
// structured JSON (`GET /stats/detail`).
package metrics

import (
	"math/bits"
	rand "math/rand/v2"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// SetMax raises the gauge to v if v is greater — a monotone
// high-watermark update safe under concurrent writers.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// numBuckets covers raw values up to 2^39-1; in nanoseconds that is
// ~9.2 minutes, far beyond any latency this system produces. Larger
// values clamp into the last bucket.
const numBuckets = 40

// Histogram is a fixed-bucket log₂ histogram. Bucket i counts raw
// values v with bits.Len64(v) == i, i.e. v ∈ [2^(i-1), 2^i) (bucket 0
// holds only v == 0). Observations are single atomic adds; there is
// no lock and no allocation. Duration histograms record nanoseconds;
// plain value histograms (batch sizes, row counts) record the value
// itself — the scale field maps raw units to exposition units.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // raw units (ns for duration histograms)
	max     atomic.Uint64
	buckets [numBuckets]atomic.Uint64
	// scale converts raw units to exposition units: 1e-9 for
	// nanoseconds→seconds, 1 for plain values. Set at construction,
	// read-only afterwards.
	scale float64
}

func bucketIndex(v uint64) int {
	i := bits.Len64(v)
	if i >= numBuckets {
		i = numBuckets - 1
	}
	return i
}

// Observe records a duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.ObserveValue(uint64(d))
}

// ObserveSince records the elapsed time since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0)) }

// ObserveValue records a raw value.
func (h *Histogram) ObserveValue(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram. Reads of the
// live histogram are not atomic with respect to each other, so a
// snapshot taken under concurrent writes may be off by in-flight
// observations — fine for monitoring.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64 // raw units
	Max     uint64 // raw units
	Buckets [numBuckets]uint64
	Scale   float64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		Scale: h.scale,
	}
	if s.Scale == 0 {
		s.Scale = 1
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns the q-th quantile (clamped to [0, 1]) in raw
// units, linearly interpolated within the log₂ bucket holding the
// rank. Edge cases are exact rather than interpolated: an empty
// histogram returns 0, q >= 1 (or a single observation) returns the
// tracked maximum, and q <= 0 returns the lower bound of the first
// populated bucket.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 || s.Count == 1 {
		// The true maximum is tracked exactly; interpolating within
		// the top bucket would only blur it.
		return float64(s.Max)
	}
	if q < 0 {
		q = 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := bucketBounds(i)
			est := lo + (hi-lo)*(rank-cum)/float64(n)
			// The true maximum tightens the estimate: no observation
			// exceeds it (Max is 0 when every observation was 0, so
			// the clamp must apply at zero too).
			if m := float64(s.Max); est > m {
				est = m
			}
			return est
		}
		cum = next
	}
	return float64(s.Max)
}

// Mean returns the mean observation in raw units (0 when empty).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
}

// upperBound returns the inclusive upper bound of bucket i (the
// largest raw value it can hold), used as the Prometheus `le` edge.
func upperBound(i int) uint64 {
	if i >= numBuckets-1 {
		return 1<<63 - 1
	}
	return uint64(1)<<i - 1
}

// sampleMask enables 1-in-16 sampling for hot-path latency timing:
// two clock reads plus a histogram observation cost ~70ns, which is
// material against a ~400ns cache hit. Uniform random sampling leaves
// latency quantiles unbiased; histogram counts reflect samples, not
// ops (op totals come from counters).
const sampleMask = 15

// Sample reports whether this operation should be timed, returning
// the start timestamp when it should. The fast path is one cheap
// per-thread random draw and a mask.
func Sample() (time.Time, bool) {
	if rand.Uint64()&sampleMask != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}
