package metrics

import (
	"bufio"
	"fmt"
	"math"
	rand "math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter: %d", c.Value())
	}
	var g Gauge
	g.Add(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge: %d", g.Value())
	}
}

// newHistogram is a duration histogram of a registry of its own.
func newHistogram() *Histogram { return NewRegistry().Histogram("h") }

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram()
	h.ObserveValue(0)
	h.ObserveValue(1)
	h.ObserveValue(2)
	h.ObserveValue(3)
	h.ObserveValue(1024)
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 1030 || s.Max != 1024 {
		t.Fatalf("snapshot: %+v", s)
	}
	// 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 1024 → bucket 11.
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 11: 1}
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Errorf("bucket %d: got %d want %d", i, n, want[i])
		}
	}
}

func TestHistogramClampsToLastBucket(t *testing.T) {
	h := newHistogram()
	h.ObserveValue(math.MaxUint64)
	s := h.Snapshot()
	if s.Buckets[numBuckets-1] != 1 {
		t.Fatalf("huge value not clamped: %v", s.Buckets)
	}
	h.Observe(-time.Second)
	if s := h.Snapshot(); s.Buckets[0] != 1 {
		t.Fatalf("negative duration not clamped to zero: %v", s.Buckets)
	}
}

// Quantiles of a log₂ histogram are interpolated within a bucket, so
// the estimate can be off by at most the bucket width: the true value
// and estimate always share a factor-of-2 bracket.
func TestQuantileKnownDistributions(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		h := newHistogram()
		for v := uint64(1); v <= 100000; v++ {
			h.ObserveValue(v)
		}
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
			truth := q * 100000
			got := s.Quantile(q)
			if got < truth/2 || got > truth*2 {
				t.Errorf("q=%v: got %v, truth %v", q, got, truth)
			}
		}
		if s.Quantile(1) != 100000 {
			t.Errorf("p100 should be the max: %v", s.Quantile(1))
		}
	})
	t.Run("bimodal", func(t *testing.T) {
		// 90 fast ops at 1µs, 10 slow ops at 1ms: p50 must sit in
		// the fast mode's bucket, p95 and p99 in the slow mode's.
		h := newHistogram()
		for i := 0; i < 90; i++ {
			h.Observe(time.Microsecond)
		}
		for i := 0; i < 10; i++ {
			h.Observe(time.Millisecond)
		}
		s := h.Snapshot()
		if p50 := time.Duration(s.Quantile(0.5)); p50 < 512*time.Nanosecond || p50 > 1024*time.Nanosecond {
			t.Errorf("p50: %v", p50)
		}
		if p99 := time.Duration(s.Quantile(0.99)); p99 < 512*time.Microsecond || p99 > 1048*time.Microsecond {
			t.Errorf("p99: %v", p99)
		}
	})
	t.Run("exponential", func(t *testing.T) {
		r := rand.New(rand.NewPCG(1, 2))
		h := newHistogram()
		const mean = 50000.0 // 50µs
		for i := 0; i < 200000; i++ {
			h.ObserveValue(uint64(r.ExpFloat64() * mean))
		}
		s := h.Snapshot()
		for _, c := range []struct{ q, truth float64 }{
			{0.5, mean * math.Ln2},
			{0.95, mean * math.Log(20)},
			{0.99, mean * math.Log(100)},
		} {
			got := s.Quantile(c.q)
			if got < c.truth/2 || got > c.truth*2 {
				t.Errorf("q=%v: got %v, truth %v", c.q, got, c.truth)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		h := newHistogram()
		s := h.Snapshot()
		if s.Quantile(0.99) != 0 || s.Mean() != 0 {
			t.Error("empty histogram should report zeros")
		}
	})
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.ObserveValue(uint64(g*10000 + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 80000 {
		t.Fatalf("count: %d", s.Count)
	}
	if s.Max != 79999 {
		t.Fatalf("max: %d", s.Max)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("ops_total", "op", "get")
	c2 := r.Counter("ops_total", "op", "get")
	if c1 != c2 {
		t.Fatal("same name+labels must return the same counter")
	}
	if c3 := r.Counter("ops_total", "op", "set"); c3 == c1 {
		t.Fatal("different labels must return distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("ops_total")
}

func TestLabelString(t *testing.T) {
	if got := LabelString(); got != "" {
		t.Errorf("empty: %q", got)
	}
	if got := LabelString("b", "2", "a", "1"); got != `{a="1",b="2"}` {
		t.Errorf("sorted: %q", got)
	}
	if got := LabelString("k", "a\"b\\c\nd"); got != `{k="a\"b\\c\nd"}` {
		t.Errorf("escaped: %q", got)
	}
}

// parsePromText validates Prometheus text exposition output: every
// line is a comment or `name{labels} value`, TYPE lines precede their
// family's samples, and no sample line repeats.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad kind in %q", line)
			}
			if typed[parts[2]] {
				t.Fatalf("duplicate TYPE for %s", parts[2])
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("no value separator in %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		var val float64
		if _, err := fmt.Sscanf(valStr, "%g", &val); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unterminated label block in %q", line)
			}
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q precedes its TYPE line", line)
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = val
	}
	return samples
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("couchgo_test_hits_total").Add(7)
	r.Counter("couchgo_test_ops_total", "op", "get").Add(3)
	r.Counter("couchgo_test_ops_total", "op", "set").Add(4)
	r.Gauge("couchgo_test_depth").Add(-2)
	h := r.Histogram("couchgo_test_latency_seconds", "op", "get")
	h.Observe(100 * time.Microsecond)
	h.Observe(3 * time.Millisecond)

	var b strings.Builder
	tw := NewTextWriter(&b)
	r.WriteTo(tw)
	// A scrape-time computed gauge shares the writer.
	tw.Gauge("couchgo_test_lag", LabelString("stream", "replica:n1"), 12)
	if tw.err != nil {
		t.Fatal(tw.err)
	}

	samples := parsePromText(t, b.String())
	if samples["couchgo_test_hits_total"] != 7 {
		t.Errorf("hits: %v", samples)
	}
	if samples[`couchgo_test_ops_total{op="set"}`] != 4 {
		t.Errorf("ops set: %v", samples)
	}
	if samples["couchgo_test_depth"] != -2 {
		t.Errorf("depth: %v", samples)
	}
	if samples[`couchgo_test_lag{stream="replica:n1"}`] != 12 {
		t.Errorf("lag: %v", samples)
	}
	if samples[`couchgo_test_latency_seconds_count{op="get"}`] != 2 {
		t.Errorf("hist count: %v", samples)
	}
	if samples[`couchgo_test_latency_seconds_bucket{op="get",le="+Inf"}`] != 2 {
		t.Errorf("hist +Inf: %v", samples)
	}
	// Cumulative buckets never decrease.
	var prev float64
	for i := 0; i < numBuckets; i++ {
		key := fmt.Sprintf(`couchgo_test_latency_seconds_bucket{op="get",le="%s"}`,
			formatFloat(float64(upperBound(i))*1e-9))
		if v, ok := samples[key]; ok {
			if v < prev {
				t.Errorf("bucket %d decreased: %v < %v", i, v, prev)
			}
			prev = v
		}
	}
	if prev != 2 {
		t.Errorf("last bucket should hold all observations: %v", prev)
	}
}

func TestSlowQueryLog(t *testing.T) {
	l := NewSlowQueryLog(10*time.Millisecond, 3)
	if l.Observe("fast", time.Millisecond) {
		t.Fatal("fast query logged")
	}
	for i := 0; i < 5; i++ {
		if !l.Observe(fmt.Sprintf("q%d", i), 20*time.Millisecond) {
			t.Fatal("slow query not logged")
		}
	}
	if l.Total() != 5 {
		t.Fatalf("total: %d", l.Total())
	}
	got := l.Entries()
	if len(got) != 3 {
		t.Fatalf("ring size: %d", len(got))
	}
	// Most recent first, oldest two evicted.
	for i, want := range []string{"q4", "q3", "q2"} {
		if got[i].Statement != want {
			t.Fatalf("entries: %v", got)
		}
	}
}

func TestSample(t *testing.T) {
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if t0, ok := Sample(); ok {
			if t0.IsZero() {
				t.Fatal("sampled without timestamp")
			}
			hits++
		}
	}
	// 1-in-16 sampling: expect ~6250, allow wide slack.
	if hits < n/32 || hits > n/8 {
		t.Fatalf("sample rate off: %d/%d", hits, n)
	}
}

// TestQuantileEdgeCases pins the exact (non-interpolated) answers at
// the boundaries of the quantile function's domain.
func TestQuantileEdgeCases(t *testing.T) {
	single := newHistogram()
	single.ObserveValue(300)

	zeros := newHistogram()
	for i := 0; i < 10; i++ {
		zeros.ObserveValue(0)
	}

	spread := newHistogram()
	for _, v := range []uint64{2, 3, 5, 700} {
		spread.ObserveValue(v)
	}

	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want float64
	}{
		{"empty/q0", newHistogram(), 0, 0},
		{"empty/q0.5", newHistogram(), 0.5, 0},
		{"empty/q1", newHistogram(), 1, 0},
		{"single/q0.5 is the one value", single, 0.5, 300},
		{"single/q1 is the one value", single, 1, 300},
		{"single/negative q clamps", single, -3, 300},
		{"all-zero/q1 must not interpolate above max", zeros, 1, 0},
		{"all-zero/q0.5 must not interpolate above max", zeros, 0.5, 0},
		{"spread/q1 is exact max not bucket bound", spread, 1, 700},
		{"spread/q above 1 clamps to max", spread, 1.5, 700},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap := c.h.Snapshot()
			if got := snap.Quantile(c.q); got != c.want {
				t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
			}
		})
	}

	// q <= 0 with multiple observations: lower bound of the first
	// populated bucket (2 and 3 share bucket [2,4)).
	snap := spread.Snapshot()
	if got := snap.Quantile(0); got != 2 {
		t.Fatalf("Quantile(0) = %v, want 2", got)
	}
}

// TestSlowQueryLogConcurrent hammers Observe from many goroutines
// while Entries/Total snapshot concurrently — the ring must stay
// internally consistent under -race.
func TestSlowQueryLogConcurrent(t *testing.T) {
	l := NewSlowQueryLog(time.Millisecond, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Observe(fmt.Sprintf("w%d-%d", g, i), 2*time.Millisecond)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := l.Entries(); len(got) > 8 {
					t.Errorf("ring overflow: %d entries", len(got))
					return
				}
				l.Total()
			}
		}()
	}
	wg.Wait()
	if total := l.Total(); total != 8*200 {
		t.Fatalf("total = %d, want %d", total, 8*200)
	}
	got := l.Entries()
	if len(got) != 8 {
		t.Fatalf("retained %d, want 8", len(got))
	}
	for _, e := range got {
		if e.Statement == "" || e.Elapsed != 2*time.Millisecond {
			t.Fatalf("corrupt entry: %+v", e)
		}
	}
}

// TestGaugeSetMax exercises the CAS high-watermark under contention:
// the final value must be the global max ever offered.
func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.SetMax(int64(w*1000 + i))
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 7999 {
		t.Fatalf("SetMax converged to %d, want 7999", got)
	}
	g.SetMax(5) // lower value must not regress the watermark
	if got := g.Value(); got != 7999 {
		t.Fatalf("SetMax regressed to %d", got)
	}
}
