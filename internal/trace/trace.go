// Package trace is a lock-light, sampled, context-propagated span
// tracer for following one request across the system's asynchronous
// hops: client routing → cache/vBucket → storage flusher → DCP →
// feed drain → index/query services.
//
// Model: a Trace is an append-only tree of Spans rooted at one
// client-visible operation ("kv:set", "query", "storage:compact").
// Start consults the parent span in the context; with no parent it
// makes a 1-in-rate sampling decision (rate 0 = tracing off, the
// default — the disabled fast path is one context lookup and one
// atomic load). Asynchronous hops that outlive the root — the disk
// flusher, the DCP feed drain, replica apply — attach spans directly
// to the *Trace pointer riding the mutation, parented at the root, so
// a KV write's trace keeps growing after the client call returned. A
// timed step that parents nothing is a Stage: one call records its
// histogram sample and its span.
//
// Finished traces land in a bounded per-op ring (newest wins), plus a
// second always-keep ring for traces whose root exceeded the op's
// latency threshold — the slow-query log generalized to
// slow-anything. Rings hold pointers, so a retained trace still
// renders late-arriving async spans.
//
// Every Span method is nil-receiver safe: unsampled call sites carry
// a nil span and pay nothing.
package trace

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/metrics"
)

// Ring and span-tree bounds.
const (
	recentSize = 64  // finished traces kept per root op
	slowSize   = 64  // over-threshold traces kept per root op
	maxSpans   = 512 // spans per trace; excess is counted, not kept

	// DefaultSlowThreshold is the always-keep latency threshold used
	// for ops without an explicit SetThreshold.
	DefaultSlowThreshold = 100 * time.Millisecond
)

// Annotation is one key/value pair attached to a span.
type Annotation struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Trace is one sampled request: an ID, the root operation name, and
// an append-only span tree.
type Trace struct {
	// ID is unique within the owning Tracer's lifetime.
	ID uint64
	// Op is the root span's name; finished traces ring by it.
	Op string
	// Start is the root span's start time.
	Start time.Time

	tracer *Tracer

	// foreign marks a locally-held portion of a trace rooted on
	// another node (adopted from a wire trace context); originSpan is
	// the wire ID of the remote span that caused the local work.
	foreign    bool
	originSpan uint32

	mu      sync.Mutex
	spans   []*Span
	dropped int
	end     time.Time
	done    bool
	slow    bool
}

// Span is one timed operation within a trace. The zero of a call
// site is a nil *Span (unsampled); every method tolerates it.
type Span struct {
	tr     *Trace
	idx    int
	parent int // index into tr.spans; -1 for the root
	// wireID is the process-unique span ID used in wire trace contexts
	// and exports; remoteParent (when hasRemote) is the wire ID of the
	// span, on another node, this span continues.
	wireID       uint32
	remoteParent uint32
	hasRemote    bool
	name         string
	start        time.Time

	// Mutable fields below are guarded by tr.mu once the span is
	// published into tr.spans.
	end  time.Time
	ann  []Annotation
	err  string
	open bool
}

type ctxKey struct{}

// ContextWith returns ctx carrying s as the current span. A nil span
// returns ctx unchanged (no allocation on the unsampled path).
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the current span, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// TraceFromContext returns the trace the current span belongs to, or
// nil. Mutation paths use it to stamp the trace onto DCP batches.
func TraceFromContext(ctx context.Context) *Trace {
	return FromContext(ctx).Trace()
}

// Tracer samples, collects, and retains traces.
type Tracer struct {
	rate atomic.Int64  // sample 1 in rate roots; <=0 disables
	seq  atomic.Uint64 // trace ID source (low 32 bits of the ID)
	tick atomic.Uint64 // sampling counter

	// base is ORed into every trace ID: random per-Tracer high bits so
	// IDs minted by different processes never collide — a prerequisite
	// for stitching one distributed trace out of per-node portions.
	base uint64
	// spanSeq mints process-unique span IDs (random start, sequential)
	// for cross-process parent references; a span's wire ID must name
	// it unambiguously among every node's portion of the same trace.
	spanSeq atomic.Uint32

	mu         sync.Mutex
	thresholds map[string]time.Duration
	defThresh  time.Duration
	ops        map[string]*opRing
	// foreign holds local portions of remotely-rooted traces (adopted
	// from wire trace contexts), keyed by trace ID, FIFO-bounded.
	foreign      map[uint64]*Trace
	foreignOrder []uint64
}

// opRing retains finished traces for one root op: a ring of the most
// recent plus a ring of those over the slow threshold.
type opRing struct {
	recent    []*Trace
	recentPos int
	slow      []*Trace
	slowPos   int
}

// New creates a disabled tracer (rate 0) with the default slow
// threshold.
func New() *Tracer {
	tr := &Tracer{
		thresholds: make(map[string]time.Duration),
		defThresh:  DefaultSlowThreshold,
		ops:        make(map[string]*opRing),
		foreign:    make(map[uint64]*Trace),
	}
	for tr.base == 0 {
		tr.base = uint64(rand.Uint32()) << 32
	}
	tr.spanSeq.Store(rand.Uint32())
	return tr
}

// Default is the process-wide tracer all couchgo layers use.
var Default = New()

// SetRate enables sampling of one in n root operations; n <= 0
// disables tracing entirely.
func (tr *Tracer) SetRate(n int) { tr.rate.Store(int64(n)) }

// Rate reports the sampling rate (0 = disabled).
func (tr *Tracer) Rate() int { return int(tr.rate.Load()) }

// SetThreshold sets the always-keep latency threshold for one root
// op; d <= 0 disables always-keep for that op. An op without an
// explicit threshold uses the default, which op "" replaces.
func (tr *Tracer) SetThreshold(op string, d time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if op == "" {
		tr.defThresh = d
		return
	}
	tr.thresholds[op] = d
}

// Thresholds returns the per-op threshold overrides plus the default
// under the "" key.
func (tr *Tracer) Thresholds() map[string]time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make(map[string]time.Duration, len(tr.thresholds)+1)
	out[""] = tr.defThresh
	for op, d := range tr.thresholds {
		out[op] = d
	}
	return out
}

// Start returns a span for name: a child when ctx already carries a
// span, else a sampled new root (possibly nil). The returned context
// carries the span for downstream calls.
func (tr *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if parent := FromContext(ctx); parent != nil {
		s := parent.tr.newSpan(name, parent.idx)
		return ContextWith(ctx, s), s
	}
	n := tr.rate.Load()
	if n <= 0 || tr.tick.Add(1)%uint64(n) != 0 {
		return ctx, nil
	}
	return tr.newRoot(ctx, name)
}

// Force is Start minus the sampling tick: when tracing is enabled at
// all, the operation is always traced. For rare, interesting work —
// compaction, rollback recovery — that a 1-in-N coin would miss.
func (tr *Tracer) Force(ctx context.Context, name string) (context.Context, *Span) {
	if parent := FromContext(ctx); parent != nil {
		s := parent.tr.newSpan(name, parent.idx)
		return ContextWith(ctx, s), s
	}
	if tr.rate.Load() <= 0 {
		return ctx, nil
	}
	return tr.newRoot(ctx, name)
}

func (tr *Tracer) newRoot(ctx context.Context, name string) (context.Context, *Span) {
	t := &Trace{ID: tr.base | (tr.seq.Add(1) & 0xffffffff), Op: name, Start: time.Now(), tracer: tr}
	s := &Span{tr: t, idx: 0, parent: -1, wireID: tr.spanSeq.Add(1), name: name, start: t.Start, open: true}
	t.spans = append(t.spans, s)
	return ContextWith(ctx, s), s
}

// record files a finished trace into its op's rings.
func (tr *Tracer) record(t *Trace, d time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	r := tr.ops[t.Op]
	if r == nil {
		r = &opRing{}
		tr.ops[t.Op] = r
	}
	r.recent, r.recentPos = ringPush(r.recent, r.recentPos, t, recentSize)
	th, ok := tr.thresholds[t.Op]
	if !ok {
		th = tr.defThresh
	}
	if th > 0 && d >= th {
		t.mu.Lock()
		t.slow = true
		t.mu.Unlock()
		r.slow, r.slowPos = ringPush(r.slow, r.slowPos, t, slowSize)
	}
}

func ringPush(buf []*Trace, pos int, t *Trace, max int) ([]*Trace, int) {
	if len(buf) < max {
		return append(buf, t), 0
	}
	buf[pos] = t
	return buf, (pos + 1) % max
}

// Get returns a retained trace by ID, or nil. A locally-rooted trace
// wins over an adopted foreign portion with the same ID (possible
// when a node's client dials itself over the wire). Rings are small;
// this is a linear scan for the debug surface, not a hot path.
func (tr *Tracer) Get(id uint64) *Trace {
	for _, t := range tr.Portions(id) {
		return t
	}
	return nil
}

// Portions returns every distinct locally-retained portion of trace
// id: the locally-rooted trace (if any) first, then adopted foreign
// portions. Usually zero or one entry; two when a node's own smart
// client reached it over the wire.
func (tr *Tracer) Portions(id uint64) []*Trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	seen := make(map[*Trace]bool)
	var local, foreign []*Trace
	add := func(t *Trace) {
		if t.ID != id || seen[t] {
			return
		}
		seen[t] = true
		if t.foreign {
			foreign = append(foreign, t)
		} else {
			local = append(local, t)
		}
	}
	for _, r := range tr.ops {
		for _, t := range r.recent {
			add(t)
		}
		for _, t := range r.slow {
			add(t)
		}
	}
	if t := tr.foreign[id]; t != nil {
		add(t)
	}
	return append(local, foreign...)
}

// Summary is one retained trace's listing entry.
type Summary struct {
	ID         uint64    `json:"id"`
	Op         string    `json:"op"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Spans      int       `json:"spans"`
	Slow       bool      `json:"slow,omitempty"`
	// Foreign marks a locally-held portion of a remotely-rooted trace.
	Foreign bool `json:"foreign,omitempty"`
}

// Traces lists every retained trace, newest first.
func (tr *Tracer) Traces() []Summary {
	var out []Summary
	for _, t := range tr.retained() {
		out = append(out, t.summary())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// Clear drops every retained trace, including adopted foreign
// portions; rate and thresholds persist.
func (tr *Tracer) Clear() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ops = make(map[string]*opRing)
	tr.foreign = make(map[uint64]*Trace)
	tr.foreignOrder = nil
}

func (tr *Tracer) retained() []*Trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	seen := make(map[uint64]bool)
	var out []*Trace
	add := func(ts []*Trace) {
		for _, t := range ts {
			if !seen[t.ID] {
				seen[t.ID] = true
				out = append(out, t)
			}
		}
	}
	for _, r := range tr.ops {
		add(r.recent)
		add(r.slow)
	}
	return out
}

// --- Trace methods ---

// newSpan appends a span under parent; returns nil once the trace is
// at its span cap. The first span of an adopted foreign portion
// becomes its local root (parent -1) regardless of the requested
// parent, inheriting the portion's remote origin span: async hops
// like replica apply call StartSpan on a portion that has no local
// spans yet.
func (t *Trace) newSpan(name string, parent int) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return nil
	}
	s := &Span{tr: t, idx: len(t.spans), parent: parent, wireID: t.tracer.spanSeq.Add(1), name: name, start: time.Now(), open: true}
	if len(t.spans) == 0 {
		s.parent = -1
		if t.foreign {
			s.remoteParent, s.hasRemote = t.originSpan, true
			if t.Op == "" {
				t.Op = name
			}
		}
	}
	t.spans = append(t.spans, s)
	return s
}

// StartSpan opens a span parented at the trace root. Asynchronous
// hops (replica apply, XDCR send) use it because the span that
// enqueued the work has ended by the time they run. Nil-safe.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, 0)
}

// Duration is the root span's duration (elapsed-so-far while open).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.end.Sub(t.Start)
	}
	return time.Since(t.Start)
}

// finish retains the trace once its root span has ended.
func (t *Trace) finish(end time.Time) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.end = end
	t.mu.Unlock()
	t.tracer.record(t, end.Sub(t.Start))
}

func (t *Trace) summary() Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := time.Since(t.Start)
	if t.done {
		d = t.end.Sub(t.Start)
	}
	return Summary{
		ID: t.ID, Op: t.Op, Start: t.Start,
		DurationUS: d.Microseconds(),
		Spans:      len(t.spans),
		Slow:       t.slow,
		Foreign:    t.foreign,
	}
}

// --- Span methods ---

// Trace returns the owning trace; nil for a nil span.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// Child opens a child span without going through a context.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(name, s.idx)
}

// End closes the span. Ending the root span finishes (retains) the
// trace; async spans ending later still render.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.tr.mu.Lock()
	if s.open {
		s.open = false
		s.end = now
	}
	root := s.parent == -1
	s.tr.mu.Unlock()
	if root {
		s.tr.finish(now)
	}
}

// Annotate attaches a key/value pair to the span.
func (s *Span) Annotate(key, val string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.ann = append(s.ann, Annotation{Key: key, Value: val})
	s.tr.mu.Unlock()
}

// Error tags the span with a non-nil error.
func (s *Span) Error(err error) {
	if s == nil || err == nil {
		return
	}
	s.tr.mu.Lock()
	s.err = err.Error()
	s.tr.mu.Unlock()
}

// Stage is one timed step of the write path or the query pipeline
// (persist, replicate, feed; parse, scan, fetch …). One call records
// both views of it: a sample in couchgo_stage_seconds{stage=name}, and
// on a sampled trace a finished span named name, so the metric set and
// the span tree cannot name different steps. Spans that parent other
// spans (hops and roots) are not stages.
type Stage struct {
	name string
	h    *metrics.Histogram
}

// NewStage registers the stage's histogram; make each stage once.
func NewStage(name string) *Stage {
	return &Stage{name, metrics.Default.Histogram("couchgo_stage_seconds", "stage", name)}
}

// Record times one op's step from start to end: a sample, and a
// finished child of parent when the op is traced (parent non-nil),
// marked with err. annotate, when non-nil, runs on that span only, so
// an untraced op builds no annotation.
func (st *Stage) Record(parent *Span, start, end time.Time, err error, annotate func(*Span)) {
	st.h.Observe(end.Sub(start))
	if parent != nil {
		parent.tr.completed(st.name, parent.idx, start, end, err, annotate)
	}
}

// Batch times one step that served n ops, the ith carrying traceOf(i):
// one sample, and a finished span at the root of each distinct trace
// (the spans that enqueued the ops have ended by the time a batch runs).
func (st *Stage) Batch(n int, traceOf func(i int) *Trace, start, end time.Time, err error, annotate func(*Span)) {
	st.h.Observe(end.Sub(start))
	for i := range n {
		t, j := traceOf(i), 0
		for t != nil && j < i && traceOf(j) != t {
			j++
		}
		if t != nil && j == i { // t's first op in the batch
			t.completed(st.name, 0, start, end, err, annotate)
		}
	}
}

func (t *Trace) completed(name string, parent int, start, end time.Time, err error, annotate func(*Span)) {
	s := t.newSpan(name, parent)
	if s == nil {
		return
	}
	t.mu.Lock()
	s.start, s.end, s.open = start, end, false
	t.mu.Unlock()
	s.Error(err)
	if annotate != nil {
		annotate(s)
	}
}

// --- Rendering ---

// Node is one span in the rendered tree.
type Node struct {
	Name string `json:"name"`
	// Node labels the process the span ran in; set by Stitch on
	// cross-process trees, empty on single-process renders.
	Node string `json:"node,omitempty"`
	// StartUS is the span's start offset from the trace start.
	StartUS     int64        `json:"start_us"`
	DurationUS  int64        `json:"duration_us"`
	Open        bool         `json:"open,omitempty"`
	Error       string       `json:"error,omitempty"`
	Annotations []Annotation `json:"annotations,omitempty"`
	Children    []*Node      `json:"children,omitempty"`
}

// Tree renders the span tree. Safe to call while async spans are
// still arriving.
func (t *Trace) Tree() *Node {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	nodes := make([]*Node, len(t.spans))
	for i, s := range t.spans {
		end := s.end
		if s.open {
			end = now
		}
		n := &Node{
			Name:       s.name,
			StartUS:    s.start.Sub(t.Start).Microseconds(),
			DurationUS: end.Sub(s.start).Microseconds(),
			Open:       s.open,
			Error:      s.err,
		}
		if len(s.ann) > 0 {
			n.Annotations = append([]Annotation(nil), s.ann...)
		}
		nodes[i] = n
		if s.parent >= 0 {
			p := nodes[s.parent]
			p.Children = append(p.Children, n)
		}
	}
	if t.dropped > 0 && len(nodes) > 0 {
		nodes[0].Annotations = append(nodes[0].Annotations,
			Annotation{Key: "spans_dropped", Value: fmt.Sprint(t.dropped)})
	}
	if len(nodes) == 0 {
		return nil
	}
	return nodes[0]
}
