package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind distinguishes metric families in the registry.
type Kind uint8

// Metric kinds, mirroring the Prometheus TYPE line.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type series struct {
	labels string // rendered `{k="v",...}` with keys sorted, or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

type family struct {
	kind   Kind
	series map[string]*series
}

// Registry is a get-or-create store of named metric families. Lookup
// takes a mutex, so callers hold the returned handle in a package
// variable rather than re-resolving on the hot path.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// Default is the process-wide registry every service instruments
// into. Multiple in-process clusters (tests, embedded use) share it;
// counters are monotone so shared accumulation stays Prometheus-safe.
var Default = NewRegistry()

func (r *Registry) get(name string, kind Kind, labels []string) *series {
	ls := LabelString(labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{kind: kind, series: map[string]*series{}}
		r.fams[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	s := f.series[ls]
	if s == nil {
		s = &series{labels: ls}
		switch kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = &Histogram{scale: 1e-9}
		}
		f.series[ls] = s
	}
	return s
}

// Counter returns the counter with the given name and label pairs,
// creating it on first use. Labels are alternating key, value.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.get(name, KindCounter, labels).c
}

// Gauge returns the gauge with the given name and label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.get(name, KindGauge, labels).g
}

// Histogram returns the duration histogram (nanoseconds in, seconds
// out) with the given name and label pairs.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.get(name, KindHistogram, labels).h
}

// ValueHistogram returns a unitless histogram (batch sizes, row
// counts): raw values are exposed as-is rather than scaled to
// seconds. Record through ObserveValue.
func (r *Registry) ValueHistogram(name string, labels ...string) *Histogram {
	h := r.get(name, KindHistogram, labels).h
	h.scale = 1
	return h
}

// LabelString renders alternating key, value pairs as a Prometheus
// label block `{k="v",...}` with keys sorted, or "" for no labels.
func LabelString(labels ...string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("metrics: odd label list")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WriteTo dumps every registered metric in Prometheus text exposition
// format, families sorted by name, series sorted by label string.
func (r *Registry) WriteTo(tw *TextWriter) {
	type snap struct {
		name   string
		kind   Kind
		series []*series
	}
	r.mu.Lock()
	fams := make([]snap, 0, len(r.fams))
	for name, f := range r.fams {
		sn := snap{name: name, kind: f.kind}
		for _, s := range f.series {
			sn.series = append(sn.series, s)
		}
		sort.Slice(sn.series, func(i, j int) bool { return sn.series[i].labels < sn.series[j].labels })
		fams = append(fams, sn)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		for _, s := range f.series {
			switch f.kind {
			case KindCounter:
				tw.Counter(f.name, s.labels, s.c.Value())
			case KindGauge:
				tw.Gauge(f.name, s.labels, float64(s.g.Value()))
			case KindHistogram:
				tw.Histogram(f.name, s.labels, s.h.Snapshot())
			}
		}
	}
}

// HistogramStats is the JSON form of a histogram snapshot. All
// quantile fields are in exposition units (seconds for duration
// histograms, raw for value histograms).
type HistogramStats struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// Stats converts a snapshot to its JSON form.
func (s HistSnapshot) Stats() HistogramStats {
	return HistogramStats{
		Count: s.Count,
		Sum:   float64(s.Sum) * s.Scale,
		Mean:  s.Mean() * s.Scale,
		P50:   s.Quantile(0.50) * s.Scale,
		P95:   s.Quantile(0.95) * s.Scale,
		P99:   s.Quantile(0.99) * s.Scale,
		P999:  s.Quantile(0.999) * s.Scale,
		Max:   float64(s.Max) * s.Scale,
	}
}

// SeriesValue is one series in a Snapshot: Value for a counter or gauge,
// Hist for a histogram. On the wire it is a bare number or the
// HistogramStats object, so JSON readers decode into the same type
// the server built.
type SeriesValue struct {
	Value float64
	Hist  *HistogramStats
}

// MarshalJSON writes the number or the histogram object.
func (s SeriesValue) MarshalJSON() ([]byte, error) {
	if s.Hist != nil {
		return json.Marshal(s.Hist)
	}
	return json.Marshal(s.Value)
}

// UnmarshalJSON reads either form back.
func (s *SeriesValue) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '{' {
		s.Hist = new(HistogramStats)
		return json.Unmarshal(b, s.Hist)
	}
	return json.Unmarshal(b, &s.Value)
}

// Snapshot is the registry as a typed, JSON-round-trippable tree:
// family name → label string → SeriesValue.
type Snapshot map[string]map[string]SeriesValue

// Snapshot copies every registered series.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, len(r.fams))
	for name, f := range r.fams {
		m := make(map[string]SeriesValue, len(f.series))
		for ls, s := range f.series {
			switch f.kind {
			case KindCounter:
				m[ls] = SeriesValue{Value: float64(s.c.Value())}
			case KindGauge:
				m[ls] = SeriesValue{Value: float64(s.g.Value())}
			case KindHistogram:
				st := s.h.Snapshot().Stats()
				m[ls] = SeriesValue{Hist: &st}
			}
		}
		out[name] = m
	}
	return out
}

// TextWriter emits Prometheus text exposition format. It writes each
// family's `# TYPE` line exactly once, so registry output and
// scrape-time computed gauges (DCP lag, queue depths) can share one
// writer without duplicate headers.
type TextWriter struct {
	w     io.Writer
	typed map[string]Kind
	err   error
}

// NewTextWriter wraps w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: w, typed: map[string]Kind{}}
}

func (t *TextWriter) printf(format string, args ...any) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

func (t *TextWriter) typeLine(name string, kind Kind) {
	if prev, ok := t.typed[name]; ok {
		if prev != kind {
			t.err = fmt.Errorf("metrics: %s written as both %s and %s", name, prev, kind)
		}
		return
	}
	t.typed[name] = kind
	t.printf("# TYPE %s %s\n", name, kind)
}

// Counter writes one counter sample. labels is a pre-rendered label
// block from LabelString (or "").
func (t *TextWriter) Counter(name, labels string, v uint64) {
	t.typeLine(name, KindCounter)
	t.printf("%s%s %d\n", name, labels, v)
}

// Gauge writes one gauge sample.
func (t *TextWriter) Gauge(name, labels string, v float64) {
	t.typeLine(name, KindGauge)
	t.printf("%s%s %s\n", name, labels, formatFloat(v))
}

// Histogram writes one histogram series: cumulative `_bucket` lines
// up to the highest populated bucket, then `+Inf`, `_sum`, `_count`.
func (t *TextWriter) Histogram(name, labels string, s HistSnapshot) {
	t.typeLine(name, KindHistogram)
	last := -1
	for i, n := range s.Buckets {
		if n > 0 {
			last = i
		}
	}
	var cum uint64
	for i := 0; i <= last; i++ {
		cum += s.Buckets[i]
		le := formatFloat(float64(upperBound(i)) * s.Scale)
		t.printf("%s_bucket%s %d\n", name, withLabel(labels, "le", le), cum)
	}
	t.printf("%s_bucket%s %d\n", name, withLabel(labels, "le", "+Inf"), s.Count)
	t.printf("%s_sum%s %s\n", name, labels, formatFloat(float64(s.Sum)*s.Scale))
	t.printf("%s_count%s %d\n", name, labels, s.Count)
}

// withLabel appends one extra label pair to a pre-rendered block.
func withLabel(labels, k, v string) string {
	extra := k + `="` + escapeLabel(v) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
