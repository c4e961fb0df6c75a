package executor

import (
	"strconv"
	"time"

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
// unconditionally; the phase stages are fed either way.
type Profile struct {
	phases []PhaseTiming
}

// NewProfile returns an empty profile (request carried `profile:
// timings`).
func NewProfile() *Profile { return &Profile{} }

// phaseStages are the "query:<op>" stages, one per operator.
var phaseStages = func() map[string]*trace.Stage {
	m := map[string]*trace.Stage{}
	for _, op := range []string{
		"parse", "plan", "scan", "fetch", "join", "unnest",
		"filter", "group", "project", "sort",
	} {
		m[op] = trace.NewStage("query:" + op)
	}
	return m
}()

// Record logs one operator phase that took d and produced items rows
// through every observability surface at once: the per-query profile
// (`profile: timings`) and the phase's stage, which samples its
// histogram and, when the request is traced, adds a "query:<op>" span.
//
// d is the operator's own time. A pipeline operator works in batches
// interleaved with its neighbours', so its d is the sum over its
// batches and start is where the executor lays the span out (operators
// end to end from the statement's start), not a measured instant.
func (o Options) Record(op string, start time.Time, d time.Duration, items int) {
	if p := o.Prof; p != nil {
		p.phases = append(p.phases, PhaseTiming{Operator: op, Elapsed: d, ExecTime: d.String(), Items: items})
	}
	phaseStages[op].Record(trace.FromContext(o.Context()), start, start.Add(d), nil, func(sp *trace.Span) {
		sp.Annotate("items", strconv.Itoa(items))
	})
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
