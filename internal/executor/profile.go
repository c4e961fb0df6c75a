package executor

import (
	"strconv"
	"time"

	"couchgo/internal/metrics"
	"couchgo/internal/trace"
)

// PhaseTiming is one operator's contribution to a statement, the unit
// of the `profile: timings` response section (§4.5.3 exposes plans;
// this exposes where the time went at execution).
type PhaseTiming struct {
	Operator string        `json:"#operator"`
	Elapsed  time.Duration `json:"-"`
	ExecTime string        `json:"execTime"`
	Items    int           `json:"items,omitempty"`
}

// Profile accumulates per-operator timings for one statement. A nil
// *Profile records nothing per-query, so execution threads it
// unconditionally; the process-wide per-phase histograms are fed
// either way.
type Profile struct {
	phases []PhaseTiming
}

// NewProfile returns an empty profile (request carried `profile:
// timings`).
func NewProfile() *Profile { return &Profile{} }

// phaseHists are the process-wide per-phase latency histograms,
// resolved once so Record stays off the registry mutex.
var phaseHists = func() map[string]*metrics.Histogram {
	m := map[string]*metrics.Histogram{}
	for _, ph := range []string{
		"parse", "plan", "scan", "fetch", "join", "unnest",
		"filter", "group", "project", "sort",
	} {
		m[ph] = metrics.Default.Histogram("couchgo_query_phase_duration_seconds", "phase", ph)
	}
	return m
}()

// Record logs one operator phase that took d and produced items rows.
// Safe on a nil receiver.
func (p *Profile) Record(op string, d time.Duration, items int) {
	if h := phaseHists[op]; h != nil {
		h.Observe(d)
	}
	if p == nil {
		return
	}
	p.phases = append(p.phases, PhaseTiming{
		Operator: op, Elapsed: d, ExecTime: d.String(), Items: items,
	})
}

// Record logs one operator phase through every observability surface
// at once: the per-query profile (`profile: timings`), the process-wide
// phase histograms, and — when the request is traced — a completed
// "query:<op>" span on the request trace. Operators call this instead
// of Prof.Record directly so profiling and tracing can never drift.
//
// d is the operator's own time. A pipeline operator works in batches
// interleaved with its neighbours', so its d is the sum over its
// batches and start is where the executor lays the span out (operators
// end to end from the statement's start), not a measured instant.
func (o Options) Record(op string, start time.Time, d time.Duration, items int) {
	o.Prof.Record(op, d, items)
	if sp := trace.FromContext(o.Context()); sp != nil {
		sp.Completed("query:"+op, start, d, "items", strconv.Itoa(items))
	}
}

// Reset forgets the recorded phases: the statement starts over.
func (p *Profile) Reset() {
	if p != nil {
		p.phases = nil
	}
}

// Timings returns the recorded phases in execution order (nil for a
// nil or empty profile).
func (p *Profile) Timings() []PhaseTiming {
	if p == nil {
		return nil
	}
	return p.phases
}
