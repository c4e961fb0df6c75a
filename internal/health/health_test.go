package health

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/feed"
	"couchgo/internal/metrics"
)

// settableCheck is a CheckFunc whose raw result the test controls.
type settableCheck struct {
	mu     sync.Mutex
	state  State
	detail string
}

func (s *settableCheck) set(st State, d string) {
	s.mu.Lock()
	s.state, s.detail = st, d
	s.mu.Unlock()
}

func (s *settableCheck) fn() (State, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.detail
}

// healthEvents returns the health events journaled after mark.
func healthEvents(mark uint64) []events.Event {
	return events.Default.Events(events.Filter{Type: events.Health, SinceSeq: mark})
}

func TestHysteresisDebouncesTransitions(t *testing.T) {
	mark := events.Default.LastSeq()
	w := New(Options{Interval: time.Hour})
	chk := &settableCheck{}
	w.Register("test", chk.fn)

	// One bad tick is not a transition.
	chk.set(Warn, "blip")
	w.Tick()
	if got := w.State(); got != OK {
		t.Fatalf("state after 1 bad tick = %s, want ok", got)
	}
	// A flap back to ok abandons the pending raise.
	chk.set(OK, "fine")
	w.Tick()
	chk.set(Warn, "blip")
	w.Tick()
	if got := w.State(); got != OK {
		t.Fatalf("state after flap = %s, want ok", got)
	}
	// Two consecutive warn ticks raise.
	w.Tick()
	if got := w.State(); got != Warn {
		t.Fatalf("state after sustained warn = %s, want warn", got)
	}
	// Recovery needs clearAfter=3 consecutive ok ticks.
	chk.set(OK, "recovered")
	w.Tick()
	w.Tick()
	if got := w.State(); got != Warn {
		t.Fatalf("state cleared too early: %s", got)
	}
	w.Tick()
	if got := w.State(); got != OK {
		t.Fatalf("state after sustained ok = %s, want ok", got)
	}

	if snap := w.Snapshot(); len(snap) != 1 || snap[0].Transitions != 2 || snap[0].State != OK || snap[0].Detail != "recovered" {
		t.Fatalf("snapshot = %+v, want 2 transitions ending ok", snap)
	}
	evs := healthEvents(mark)
	if len(evs) != 2 {
		t.Fatalf("journal has %d health events, want 2: %+v", len(evs), evs)
	}
	for i, want := range []State{Warn, OK} {
		if evs[i].Fields["check"] != "test" || evs[i].Fields["state"] != want.String() {
			t.Fatalf("event %d fields = %+v, want check test -> %s", i, evs[i].Fields, want)
		}
	}
	if evs[0].Severity != events.SevWarn || evs[1].Severity != events.SevInfo {
		t.Fatalf("event severities = %s, %s", evs[0].Severity, evs[1].Severity)
	}
}

func TestWatchdogStartStop(t *testing.T) {
	w := New(Options{Interval: time.Millisecond})
	chk := &settableCheck{}
	chk.set(Critical, "down")
	w.Register("svc", chk.fn)
	w.Start()
	deadline := time.Now().Add(5 * time.Second)
	for w.State() != Critical {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never evaluated")
		}
		time.Sleep(time.Millisecond)
	}
	w.Stop()
	snap := w.Snapshot()
	if len(snap) != 1 || snap[0].Name != "svc" || snap[0].State != Critical {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Stop is idempotent and Start works again.
	w.Stop()
	w.Start()
	w.Stop()
}

// nullSource is an empty SnapshotSource for standalone producers.
type nullSource struct{}

func (nullSource) Snapshot(uint64) ([]dcp.Mutation, uint64, error) { return nil, 0, nil }

// gatedConsumer parks every Apply until the gate receives or closes;
// parked counts the Applies that have reached it.
type gatedConsumer struct {
	gate   chan struct{}
	parked atomic.Int32
}

func (g *gatedConsumer) Apply(int, []dcp.Mutation) {
	g.parked.Add(1)
	<-g.gate
}

// TestFeedStallHysteresis drives the acceptance scenario: an injected
// feed stall takes the feed:stalls check ok→warn→critical, clearing
// the stall takes it back to ok, and hysteresis yields exactly those
// three transitions — no flapping.
func TestFeedStallHysteresis(t *testing.T) {
	mark := events.Default.LastSeq()

	// Fake clock so stall age is deterministic.
	var clockMu sync.Mutex
	now := time.Unix(1000, 0)
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}
	w := New(Options{Interval: time.Hour})
	w.Register("feed:stalls", feedStallCheck(func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}))

	// Inject a real stall: park the consumer on one mutation, let a
	// backlog deeper than the feed's stall mark (64) build behind it,
	// then let that one through. The drain comes back to the whole
	// backlog and parks again inside it.
	src := dcp.NewProducer(0, nullSource{})
	defer src.Close()
	cons := &gatedConsumer{gate: make(chan struct{})}
	f := feed.New("health-stall-test", "health-test", cons)
	defer f.Close()
	if err := f.Attach(0, src); err != nil {
		t.Fatal(err)
	}
	src.Publish(dcp.Mutation{Key: "k1", Seqno: 1})
	waitFor(t, "consumer parked", func() bool { return cons.parked.Load() == 1 })
	for i := 2; i <= 101; i++ {
		src.Publish(dcp.Mutation{Key: fmt.Sprintf("k%d", i), Seqno: uint64(i)})
	}
	cons.gate <- struct{}{}
	stalled := metrics.Default.Gauge("couchgo_feed_stalled", "service", "health-test")
	waitFor(t, "stall gauge raised", func() bool { return stalled.Value() > 0 })

	// Two ticks with an ongoing young stall: ok -> warn.
	w.Tick()
	w.Tick()
	if got := w.State(); got != Warn {
		t.Fatalf("state after sustained stall = %s, want warn", got)
	}
	// Age the stall past the critical threshold: warn -> critical.
	advance(6 * time.Second)
	w.Tick()
	w.Tick()
	if got := w.State(); got != Critical {
		t.Fatalf("state after aged stall = %s, want critical", got)
	}
	// Clear the stall; after clearAfter ticks the check recovers.
	close(cons.gate)
	waitFor(t, "stall gauge cleared", func() bool { return stalled.Value() == 0 })
	w.Tick()
	w.Tick()
	w.Tick()
	if got := w.State(); got != OK {
		t.Fatalf("state after cleared stall = %s, want ok", got)
	}

	// The journal shows exactly warn -> critical -> ok: hysteresis
	// produced one transition per phase, no flapping.
	evs := healthEvents(mark)
	if len(evs) != 3 {
		t.Fatalf("journal has %d health events, want 3: %+v", len(evs), evs)
	}
	want := []events.Severity{events.SevWarn, events.SevCritical, events.SevInfo}
	for i, e := range evs {
		if e.Severity != want[i] {
			t.Fatalf("event %d severity = %s, want %s", i, e.Severity, want[i])
		}
		if e.Fields["check"] != "feed:stalls" {
			t.Fatalf("event %d fields = %+v", i, e.Fields)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
