// Package health is the reproduction's watchdog: the piece of
// ns_server that "continuously monitors the health of the nodes" and
// turns raw metrics into operator-facing ok/warn/critical states and,
// ultimately, auto-failover decisions. Checks are plain functions
// evaluated on a fixed tick; the watchdog owns the state machine
// around them.
//
// Flap suppression is structural, not per-check: a check's raw result
// must hold for RaiseAfter consecutive ticks before the watchdog
// raises the published state (and ClearAfter ticks before it clears),
// so a metric oscillating around a threshold produces one transition,
// not one per tick. Every transition is recorded in the event journal
// and handed to an optional callback — AutoFailover wires that callback
// to the decider's failover path.
package health

import (
	"fmt"
	"sync"
	"time"

	"couchgo/internal/events"
)

// State is a check's published condition.
type State uint8

const (
	OK State = iota
	Warn
	Critical
)

// String returns the lowercase name used in JSON.
func (s State) String() string {
	switch s {
	case Warn:
		return "warn"
	case Critical:
		return "critical"
	default:
		return "ok"
	}
}

// MarshalText encodes the state as its string name.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText reads the name back, so a console decodes the checks
// the server encoded.
func (s *State) UnmarshalText(b []byte) error {
	for _, st := range []State{OK, Warn, Critical} {
		if st.String() == string(b) {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("health: unknown state %q", b)
}

// CheckFunc evaluates one rule, returning the raw state and a
// human-readable detail line. It runs on the watchdog goroutine with
// no watchdog locks held, so it may freely take cluster or registry
// locks.
type CheckFunc func() (State, string)

// CheckStatus is the published view of one check.
type CheckStatus struct {
	Name        string    `json:"name"`
	State       State     `json:"state"`
	Detail      string    `json:"detail,omitempty"`
	Since       time.Time `json:"since"`       // when the current state was entered
	Transitions uint64    `json:"transitions"` // lifetime state changes
}

// Options configure a watchdog.
type Options struct {
	// Interval between evaluation ticks (default 1s).
	Interval time.Duration
	// RaiseAfter is how many consecutive ticks a worse raw state must
	// hold before the published state raises (default 2).
	RaiseAfter int
	// ClearAfter is how many consecutive ticks a better raw state must
	// hold before the published state clears (default 3) — recoveries
	// are held longer than degradations, the usual alarm asymmetry.
	ClearAfter int
	// Journal receives a health event per transition
	// (default events.Default).
	Journal *events.Journal
	// Node labels emitted events with the observing node's ID.
	Node string
}

// Watchdog periodically evaluates registered checks and publishes
// debounced state transitions.
type Watchdog struct {
	opts Options

	mu      sync.Mutex
	checks  []*check
	onTrans func(CheckStatus)
	started bool
	stop    chan struct{}
	done    chan struct{}
}

type check struct {
	name string
	fn   CheckFunc

	state  State // published state
	detail string
	since  time.Time
	trans  uint64

	candidate State // raw state accumulating toward a transition
	streak    int
}

// New creates a watchdog; Register checks, then Start it (or drive it
// manually with Tick in tests).
func New(opts Options) *Watchdog {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.RaiseAfter <= 0 {
		opts.RaiseAfter = 2
	}
	if opts.ClearAfter <= 0 {
		opts.ClearAfter = 3
	}
	if opts.Journal == nil {
		opts.Journal = events.Default
	}
	return &Watchdog{opts: opts}
}

// Register adds a named check. Checks are evaluated in registration
// order; registering after Start is allowed.
func (w *Watchdog) Register(name string, fn CheckFunc) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.checks = append(w.checks, &check{
		name:      name,
		fn:        fn,
		since:     time.Now(),
		candidate: OK,
	})
}

// OnTransition sets a callback invoked (on the watchdog goroutine,
// with no locks held) after each published state change; AutoFailover
// is the one user.
func (w *Watchdog) OnTransition(fn func(CheckStatus)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onTrans = fn
}

// Start launches the periodic evaluation loop.
func (w *Watchdog) Start() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		return
	}
	w.started = true
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go w.run(w.stop, w.done)
}

func (w *Watchdog) run(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.Tick()
		}
	}
}

// Stop halts the evaluation loop. The watchdog can be restarted.
func (w *Watchdog) Stop() {
	w.mu.Lock()
	if !w.started {
		w.mu.Unlock()
		return
	}
	w.started = false
	stop, done := w.stop, w.done
	w.mu.Unlock()
	close(stop)
	<-done
}

// Tick runs one evaluation pass over every check. Exported so tests
// and demos can drive the state machine deterministically.
func (w *Watchdog) Tick() {
	w.mu.Lock()
	checks := make([]*check, len(w.checks))
	copy(checks, w.checks)
	onTrans := w.onTrans
	w.mu.Unlock()

	// Evaluate outside the watchdog lock: check functions take cluster
	// and registry locks of their own.
	type result struct {
		raw    State
		detail string
	}
	results := make([]result, len(checks))
	for i, c := range checks {
		raw, detail := c.fn()
		results[i] = result{raw, detail}
	}

	var fired []CheckStatus
	w.mu.Lock()
	for i, c := range checks {
		raw, detail := results[i].raw, results[i].detail
		c.detail = detail
		if raw == c.state {
			// Raw agrees with published: any pending transition is
			// abandoned.
			c.candidate = c.state
			c.streak = 0
			continue
		}
		if raw == c.candidate {
			c.streak++
		} else {
			c.candidate = raw
			c.streak = 1
		}
		need := w.opts.RaiseAfter
		if raw < c.state { // improvement: hold recoveries longer
			need = w.opts.ClearAfter
		}
		if c.streak < need {
			continue
		}
		c.state = raw
		c.since = time.Now()
		c.trans++
		c.streak = 0
		fired = append(fired, CheckStatus{
			Name:        c.name,
			State:       c.state,
			Detail:      detail,
			Since:       c.since,
			Transitions: c.trans,
		})
	}
	w.mu.Unlock()

	for _, st := range fired {
		sev := events.SevInfo
		switch st.State {
		case Warn:
			sev = events.SevWarn
		case Critical:
			sev = events.SevCritical
		}
		e := events.New(events.Health, sev,
			fmt.Sprintf("health check %s -> %s", st.Name, st.State))
		e.Node = w.opts.Node
		e.Fields = map[string]string{
			"check":  st.Name,
			"state":  st.State.String(),
			"detail": st.Detail,
		}
		w.opts.Journal.Publish(e)
		if onTrans != nil {
			onTrans(st)
		}
	}
}

// Snapshot returns the published status of every check, in
// registration order.
func (w *Watchdog) Snapshot() []CheckStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]CheckStatus, 0, len(w.checks))
	for _, c := range w.checks {
		out = append(out, CheckStatus{
			Name:        c.name,
			State:       c.state,
			Detail:      c.detail,
			Since:       c.since,
			Transitions: c.trans,
		})
	}
	return out
}

// State returns the worst published state across all checks (OK when
// no checks are registered).
func (w *Watchdog) State() State {
	w.mu.Lock()
	defer w.mu.Unlock()
	worst := OK
	for _, c := range w.checks {
		if c.state > worst {
			worst = c.state
		}
	}
	return worst
}
