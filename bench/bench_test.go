package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// The op stream of a client depends on (mix, seed, client, clients)
// only: the same seed gives the same keys, op kinds and limits on every
// run and under any goroutine interleaving.
func TestOpStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		const n = 20000
		draw := func(g int) []op {
			s := newOpStream(w.mix, 42, g, numClients)
			ops := make([]op, n)
			for i := range ops {
				ops[i] = s.next()
			}
			return ops
		}
		want := [numClients][]op{draw(0), draw(1)}
		// Again, this time with the clients drawing concurrently.
		var got [numClients][]op
		var wg sync.WaitGroup
		for g := 0; g < numClients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = draw(g)
			}()
		}
		wg.Wait()
		for g := range want {
			if !reflect.DeepEqual(want[g], got[g]) {
				t.Errorf("%s: client %d's op stream changed between runs", w.name, g)
			}
		}
		if reflect.DeepEqual(want[0], want[1]) {
			t.Errorf("%s: both clients draw the same stream", w.name)
		}
		other := newOpStream(w.mix, 43, 0, numClients)
		same := true
		for i := 0; i < 100 && same; i++ {
			same = other.next() == want[0][i]
		}
		if same {
			t.Errorf("%s: seeds 42 and 43 draw the same stream", w.name)
		}
	}
}

// Writes of a client stay inside its own keys where the mix says so,
// private keys stay inside the private range, and inserts never collide.
func TestOpStreamOwnership(t *testing.T) {
	for _, w := range workloads {
		seen := map[int64]int{}
		for g := 0; g < numClients; g++ {
			s := newOpStream(w.mix, 7, g, numClients)
			for i := 0; i < 50000; i++ {
				o := s.next()
				if o.Kind != opWrite {
					if o.Key < 0 || o.Key >= w.mix.Records {
						t.Fatalf("%s: read key %d outside [0, %d)", w.name, o.Key, w.mix.Records)
					}
					if w.mix.Scan && (o.Limit < 1 || o.Limit > maxScanLimit) {
						t.Fatalf("%s: scan limit %d", w.name, o.Limit)
					}
					continue
				}
				switch {
				case o.Private:
					if o.Key < 0 || o.Key >= privateKeys {
						t.Fatalf("%s: private key %d", w.name, o.Key)
					}
				case w.mix.Insert:
					if prev, dup := seen[o.Key]; dup {
						t.Fatalf("%s: key %d inserted by clients %d and %d", w.name, o.Key, prev, g)
					}
					seen[o.Key] = g
				case w.mix.OwnWrites:
					if o.Key%numClients != int64(g) || o.Key < 0 || o.Key >= w.mix.Records {
						t.Fatalf("%s: client %d wrote key %d, not its own", w.name, g, o.Key)
					}
				}
			}
		}
	}
}

// Over 1M draws the read share is within 1 % of the mix's, and the
// zipfian's skew within 1 % of what the distribution predicts.
func TestMixAndSkew(t *testing.T) {
	const draws = 1_000_000
	for _, w := range workloads {
		s := newOpStream(w.mix, 1, 0, numClients)
		reads := 0
		for i := 0; i < draws; i++ {
			if s.next().Kind == opRead {
				reads++
			}
		}
		if got := float64(reads) / draws; math.Abs(got-w.mix.ReadShare) > 0.01 {
			t.Errorf("%s: read share %.4f, want %.2f", w.name, got, w.mix.ReadShare)
		}
	}

	const n = 50000
	z := newZipfian(n)
	r := newRNG(1, 0)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.rank(r)]++
	}
	// Gray's method gives ranks 0 and 1 their exact zipfian mass,
	// zeta(k)/zeta(n), and beyond them inverts a continuous
	// approximation, rank = n·(ηu − η + 1)^α, whose own CDF is the
	// oracle there (it runs about a point above the true zipfian).
	cum := 0
	next := 0
	for _, k := range []int{1, 2, 10, 100, 1000, 10000} {
		for ; next < k; next++ {
			cum += counts[next]
		}
		want := zeta(int64(k), zipfTheta) / z.zetan
		if k > 2 {
			want = (math.Pow(float64(k)/n, 1/z.alpha) - 1 + z.eta) / z.eta
		}
		if got := float64(cum) / draws; math.Abs(got-want) > 0.01 {
			t.Errorf("zipfian: P(rank < %d) = %.4f, want %.4f", k, got, want)
		}
	}
	// Scrambling keeps the skew but moves the hot keys apart.
	if a, b := scramble(0, n), scramble(1, n); a == b || a < 0 || a >= n {
		t.Errorf("scramble(0)=%d scramble(1)=%d", a, b)
	}
}

// A reported quantile is within 1 % of the same quantile of the sorted
// samples.
func TestHistogramQuantileError(t *testing.T) {
	r := newRNG(3, 0)
	var h hist
	samples := make([]float64, 0, 200000)
	for i := 0; i < cap(samples); i++ {
		// Log-uniform over 100 ns .. 100 ms, the range latencies span.
		v := int64(100 * math.Pow(10, 6*r.float()))
		h.add(v)
		samples = append(samples, float64(v))
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		got, ok := h.quantile(q)
		if !ok {
			t.Fatalf("q=%v not reportable with %d samples", q, len(samples))
		}
		want := samples[int(q*float64(len(samples)))]
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q=%v: histogram %.0f, oracle %.0f", q, got, want)
		}
	}
	// Every value lands in a bucket that contains it.
	for _, v := range []uint64{0, 1, 255, 256, 257, 1000, 1 << 20, 1<<40 - 1} {
		lo, hi := histBounds(histIndex(v))
		if v < lo || v >= hi {
			t.Errorf("value %d in bucket [%d, %d)", v, lo, hi)
		}
	}
	// A percentile needs ten samples beyond it.
	var small hist
	for i := 0; i < 500; i++ {
		small.add(int64(i))
	}
	if _, ok := small.quantile(0.99); ok {
		t.Error("p99 of 500 samples reported")
	}
	if _, ok := small.quantile(0.5); !ok {
		t.Error("p50 of 500 samples withheld")
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json names exactly the workloads and metrics the harness
// emits, with the same units, and the emitted JSON round-trips.
func TestBenchmarkJSONInStep(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, harness %v", names, have)
	}

	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{name: m.Name, unit: m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("end_to_end: BENCHMARK.json %v, harness %v", e2e, endToEndDefs)
	}
	if !reflect.DeepEqual(layers, layerDefs) {
		t.Errorf("per_layer: BENCHMARK.json %v, harness %v", layers, layerDefs)
	}

	// What a run emits round-trips and carries every metric of its mode.
	for _, trace := range []bool{false, true} {
		res := newResult(runConfig{seed: 1, seconds: defaultSeconds, trace: trace}, workloads[0])
		defs := endToEndDefs
		if trace {
			defs = layerDefs
		}
		_, m := res.metrics()
		for _, d := range defs {
			m[d.name] = stat{Value: 1.5, Unit: d.unit}
		}
		line, err := json.Marshal(res.driverLine())
		if err != nil {
			t.Fatal(err)
		}
		var back driverLine
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, res.driverLine()) {
			t.Errorf("driver line does not round-trip: %s", line)
		}
		if len(back.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics emitted, want %d", trace, len(back.Metrics), len(defs))
		}
		full, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var again result
		if err := json.Unmarshal(full, &again); err != nil {
			t.Fatal(err)
		}
		if again.Workload != res.Workload || len(again.EndToEnd)+len(again.Layers) != len(defs) {
			t.Errorf("result file does not round-trip: %s", full)
		}
	}
}

// The counter parser and the cumulative-bucket arithmetic the layer
// metrics rest on.
func TestCounters(t *testing.T) {
	before := parseCounters(`# TYPE x counter
x_total 10
h_bucket{le="0.001"} 4
h_bucket{le="+Inf"} 4
h_sum 0.002
h_count 4
g{a="1"} 3
g{a="2"} 4
`)
	after := parseCounters(`x_total 25
h_bucket{le="0.001"} 6
h_bucket{le="0.002"} 10
h_bucket{le="+Inf"} 10
h_sum 0.012
h_count 10
`)
	if got := before.sumFamily("g"); got != 7 {
		t.Errorf("sumFamily = %v", got)
	}
	d := after.sub(before)
	if d["x_total"] != 15 {
		t.Errorf("diff = %v", d["x_total"])
	}
	// The earlier reading had no 0.002 bucket: it held all 4 by then.
	if got := d[`h_bucket{le="0.002"}`]; got != 6 {
		t.Errorf("filled bucket diff = %v, want 6", got)
	}
	if got := d.histMean("h"); math.Abs(got-0.01/6) > 1e-12 {
		t.Errorf("histMean = %v", got)
	}
	// 2 of 6 new observations are ≤ 1 ms, so the median lies a quarter
	// of the way into the (1 ms, 2 ms] bucket.
	if got := d.histQuantile("h", 0.5); math.Abs(got-0.00125) > 1e-9 {
		t.Errorf("histQuantile = %v, want 0.00125", got)
	}
	sum := sumCounters([]counters{before, after})
	if got := sum[`h_bucket{le="0.002"}`]; got != 14 {
		t.Errorf("summed bucket = %v, want 14", got)
	}
}
