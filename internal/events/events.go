// Package events is the cluster's structured event journal — the
// third observability pillar next to metrics (counters: how much) and
// traces (spans: how slow). An event records that something *happened*
// as a first-class, queryable fact: "vb 12 promoted after failover",
// "feed gsi stalled", "compaction reclaimed 4 MiB". This is the
// reproduction's analogue of ns_server's event log, which clients and
// operators consume for topology changes and which the chaos harness
// asserts against.
//
// Design constraints mirror internal/feed's fan-out discipline:
//
//   - Bounded memory: each event type keeps its own fixed-size ring, so
//     a rebalance storm of vbucket events can never evict the one
//     durability-timeout event an operator is hunting.
//   - Non-blocking publish: Publish appends to the ring and offers the
//     event to each subscriber with a select/default send. A slow
//     subscriber loses events (counted, per subscriber) rather than
//     stalling the emitter — emitters hold arbitrary locks (core's
//     rebalance mutex, storage file locks) and must never wait on a
//     consumer.
//   - stdlib only, no in-repo imports: every layer (core, feed, dcp,
//     storage, cache, xdcr, rest) can emit without creating a cycle.
package events

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Severity classifies an event's urgency.
type Severity uint8

const (
	SevInfo Severity = iota
	SevWarn
	SevCritical
)

// String returns the lowercase name used in JSON and query params.
func (s Severity) String() string {
	switch s {
	case SevWarn:
		return "warn"
	case SevCritical:
		return "critical"
	default:
		return "info"
	}
}

// MarshalJSON encodes the severity as its string name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes a severity from its string name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	v, ok := ParseSeverity(string(trimQuotes(b)))
	if !ok {
		return errBadSeverity
	}
	*s = v
	return nil
}

type badSeverityError struct{}

func (badSeverityError) Error() string { return "events: unknown severity" }

var errBadSeverity = badSeverityError{}

func trimQuotes(b []byte) []byte {
	if len(b) >= 2 && b[0] == '"' && b[len(b)-1] == '"' {
		return b[1 : len(b)-1]
	}
	return b
}

// ParseSeverity maps a string name to a Severity.
func ParseSeverity(s string) (Severity, bool) {
	switch s {
	case "info":
		return SevInfo, true
	case "warn", "warning":
		return SevWarn, true
	case "critical", "crit":
		return SevCritical, true
	}
	return SevInfo, false
}

// Type names an event category. Each type gets its own bounded ring in
// the journal.
type Type string

const (
	Topology   Type = "topology"   // node add/kill/failover, bucket create, rebalance
	VBucket    Type = "vbucket"    // vb promote/takeover/move
	FeedEvent  Type = "feed"       // feed stall, feed rollback
	DCP        Type = "dcp"        // stream resume rejected (rollback required)
	Compaction Type = "compaction" // compaction start/done
	SlowOp     Type = "slowop"     // slow query / slow KV op
	Durability Type = "durability" // durability wait timeout
	Config     Type = "config"     // runtime config change
	Health     Type = "health"     // health check state transition
	CacheEvent Type = "cache"      // pager eviction pass, watermark crossings
	XDCR       Type = "xdcr"       // replication start/stop
)

// Types returns every known event type, sorted. REST uses it to
// validate ?type= filters.
func Types() []Type {
	return []Type{CacheEvent, Compaction, Config, DCP, Durability,
		FeedEvent, Health, SlowOp, Topology, VBucket, XDCR}
}

// ValidType reports whether t names a known event type.
func ValidType(t Type) bool {
	for _, k := range Types() {
		if k == t {
			return true
		}
	}
	return false
}

// NoVB marks an event not tied to a particular vBucket.
const NoVB = -1

// Event is one journal entry. Seq is a journal-wide monotone sequence
// number assigned at publish; ?since= filters and the long-poll cursor
// are built on it. TraceID links the event to the originating request's
// trace when that request was sampled (0 otherwise).
type Event struct {
	Seq      uint64            `json:"seq"`
	Time     time.Time         `json:"time"`
	Type     Type              `json:"type"`
	Severity Severity          `json:"severity"`
	Node     string            `json:"node,omitempty"`
	Bucket   string            `json:"bucket,omitempty"`
	VB       int               `json:"vb"` // NoVB when not applicable
	Service  string            `json:"service,omitempty"`
	Msg      string            `json:"msg"`
	TraceID  uint64            `json:"trace_id,omitempty"`
	Fields   map[string]string `json:"fields,omitempty"`
}

// New builds an event with VB defaulted to NoVB; callers fill in the
// fields they know before publishing.
func New(t Type, sev Severity, msg string) Event {
	return Event{Type: t, Severity: sev, Msg: msg, VB: NoVB}
}

// Filter selects events from the journal.
type Filter struct {
	Type        Type     // zero: all types
	MinSeverity Severity // events at or above this severity
	SinceSeq    uint64   // only events with Seq > SinceSeq
	Limit       int      // keep the newest Limit events; 0: no limit
}

// Subscription is one consumer's bounded, non-blocking event tap.
type Subscription struct {
	j  *Journal
	ch chan Event
}

// C returns the event channel. The journal never closes it (a publisher
// racing Close must not send on a closed channel), so a consumer stops
// on its own signal.
func (s *Subscription) C() <-chan Event { return s.ch }

// Close deregisters the subscription. Events already buffered on C()
// remain readable.
func (s *Subscription) Close() { s.j.unsubscribe(s) }

// Journal is the bounded event store plus fan-out hub.
type Journal struct {
	cap int

	mu    sync.Mutex
	seq   uint64
	rings map[Type]*ring
	subs  map[*Subscription]struct{}

	published atomic.Uint64 // total events published
	dropped   atomic.Uint64 // total subscriber-side drops, all subs
}

// ring is a fixed-capacity overwrite-oldest buffer of events.
type ring struct {
	buf   []Event
	next  int
	total int
}

func (r *ring) add(e Event) {
	if r.total < len(r.buf) {
		r.buf[r.total] = e
		r.total++
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
}

// snapshot appends the ring's events, oldest first, to dst.
func (r *ring) snapshot(dst []Event) []Event {
	if r.total < len(r.buf) {
		return append(dst, r.buf[:r.total]...)
	}
	dst = append(dst, r.buf[r.next:]...)
	return append(dst, r.buf[:r.next]...)
}

// DefaultCapacity is the per-type ring size of the Default journal —
// large enough that a full-cluster rebalance (one vbucket event per
// moved vb) doesn't wrap mid-investigation.
const DefaultCapacity = 512

// NewJournal creates a journal keeping perTypeCap events per type
// (DefaultCapacity when <= 0).
func NewJournal(perTypeCap int) *Journal {
	if perTypeCap <= 0 {
		perTypeCap = DefaultCapacity
	}
	return &Journal{
		cap:   perTypeCap,
		rings: make(map[Type]*ring),
		subs:  make(map[*Subscription]struct{}),
	}
}

// Default is the process-wide journal, mirroring metrics.Default and
// trace.Default.
var Default = NewJournal(DefaultCapacity)

// Publish stamps the event with the next sequence number and the
// current time, stores it in its type's ring, and offers it to every
// subscriber without blocking. It returns the stamped event.
func (j *Journal) Publish(e Event) Event {
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r := j.rings[e.Type]
	if r == nil {
		r = &ring{buf: make([]Event, j.cap)}
		j.rings[e.Type] = r
	}
	r.add(e)
	var subs []*Subscription
	if len(j.subs) > 0 {
		subs = make([]*Subscription, 0, len(j.subs))
		for s := range j.subs {
			subs = append(subs, s)
		}
	}
	j.mu.Unlock()
	j.published.Add(1)

	// Fan out after unlocking: the sends never block (select/default),
	// but holding the journal lock across them would still couple every
	// emitter to the subscriber count.
	for _, s := range subs {
		select {
		case s.ch <- e:
		default:
			j.dropped.Add(1)
		}
	}
	return e
}

// LastSeq returns the sequence number of the most recently published
// event (0 if none).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Events returns journal entries matching f, ordered by ascending
// sequence number. With a Limit, the newest Limit matches are kept.
func (j *Journal) Events(f Filter) []Event {
	j.mu.Lock()
	var all []Event
	if f.Type != "" {
		if r := j.rings[f.Type]; r != nil {
			all = r.snapshot(nil)
		}
	} else {
		for _, r := range j.rings {
			all = r.snapshot(all)
		}
	}
	j.mu.Unlock()

	out := all[:0]
	for _, e := range all {
		if e.Severity < f.MinSeverity || e.Seq <= f.SinceSeq {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Subscribe registers a tap with the given buffer size (minimum 1).
// The caller must Close it when done.
func (j *Journal) Subscribe(buf int) *Subscription {
	if buf < 1 {
		buf = 1
	}
	s := &Subscription{j: j, ch: make(chan Event, buf)}
	j.mu.Lock()
	j.subs[s] = struct{}{}
	j.mu.Unlock()
	return s
}

func (j *Journal) unsubscribe(s *Subscription) {
	j.mu.Lock()
	delete(j.subs, s)
	j.mu.Unlock()
}

// Stats describes journal-wide accounting for /metrics and the node
// snapshot.
type Stats struct {
	Published   uint64       `json:"published"`   // events published, lifetime
	Dropped     uint64       `json:"dropped"`     // subscriber-side drops, lifetime
	Subscribers int          `json:"subscribers"` // currently registered subscriptions
	Retained    map[Type]int `json:"retained"`    // events currently held, per ring
	LastSeq     uint64       `json:"last_seq"`    // newest sequence number
}

// Stats returns a snapshot of journal accounting.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	retained := make(map[Type]int, len(j.rings))
	for t, r := range j.rings {
		retained[t] = r.total
		if r.total > len(r.buf) {
			retained[t] = len(r.buf)
		}
	}
	st := Stats{
		Subscribers: len(j.subs),
		Retained:    retained,
		LastSeq:     j.seq,
	}
	j.mu.Unlock()
	st.Published = j.published.Load()
	st.Dropped = j.dropped.Load()
	return st
}
