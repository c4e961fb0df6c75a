package health

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"couchgo/internal/cmap"
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

func healthEvents(j *events.Journal, since uint64) []events.Event {
	return j.Events(events.Filter{Type: events.Health, SinceSeq: since})
}

func TestHysteresisDebouncesTransitions(t *testing.T) {
	j := events.NewJournal(64)
	w := New(Options{Interval: time.Hour, RaiseAfter: 2, ClearAfter: 3, Journal: j})
	chk := &settableCheck{}
	w.Register("test", chk.fn)

	var fired []CheckStatus
	var firedMu sync.Mutex
	w.OnTransition(func(st CheckStatus) {
		firedMu.Lock()
		fired = append(fired, st)
		firedMu.Unlock()
	})

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
	// Recovery needs ClearAfter=3 consecutive ok ticks.
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

	firedMu.Lock()
	defer firedMu.Unlock()
	if len(fired) != 2 || fired[0].State != Warn || fired[1].State != OK {
		t.Fatalf("transitions = %+v, want [warn ok]", fired)
	}
	evs := healthEvents(j, 0)
	if len(evs) != 2 {
		t.Fatalf("journal has %d health events, want 2: %+v", len(evs), evs)
	}
	if evs[0].Severity != events.SevWarn || evs[1].Severity != events.SevInfo {
		t.Fatalf("event severities = %s, %s", evs[0].Severity, evs[1].Severity)
	}
	if evs[0].Fields["check"] != "test" {
		t.Fatalf("event fields = %+v", evs[0].Fields)
	}
}

func TestWatchdogStartStop(t *testing.T) {
	j := events.NewJournal(64)
	w := New(Options{Interval: time.Millisecond, RaiseAfter: 1, ClearAfter: 1, Journal: j})
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

func (g *gatedConsumer) Apply(int, dcp.Mutation) {
	g.parked.Add(1)
	<-g.gate
}

// TestFeedStallHysteresis drives the acceptance scenario: an injected
// feed stall takes the feed:stalls check ok→warn→critical, clearing
// the stall takes it back to ok, and hysteresis yields exactly those
// three transitions — no flapping.
func TestFeedStallHysteresis(t *testing.T) {
	j := events.NewJournal(64)

	// Fake clock so stall age is deterministic.
	var clockMu sync.Mutex
	now := time.Unix(1000, 0)
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}
	cfg := ClusterCheckConfig{
		FeedStallCritAfter: 5 * time.Second,
		Now: func() time.Time {
			clockMu.Lock()
			defer clockMu.Unlock()
			return now
		},
	}
	cfg.defaults()

	w := New(Options{Interval: time.Hour, RaiseAfter: 2, ClearAfter: 2, Journal: j})
	w.Register("feed:stalls", feedStallCheck(cfg))

	// Inject a real stall: park the consumer on one mutation, let a
	// backlog deeper than the feed's stall mark (64) build behind it,
	// then let that one through. The drain comes back to the whole
	// backlog and parks again inside it.
	src := dcp.NewProducer(0, nullSource{})
	defer src.Close()
	cons := &gatedConsumer{gate: make(chan struct{})}
	f := feed.New("health-stall-test", cons, feed.Config{Service: "health-test"})
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
	// Clear the stall; after ClearAfter ticks the check recovers.
	close(cons.gate)
	waitFor(t, "stall gauge cleared", func() bool { return stalled.Value() == 0 })
	w.Tick()
	w.Tick()
	if got := w.State(); got != OK {
		t.Fatalf("state after cleared stall = %s, want ok", got)
	}

	// The journal shows exactly warn -> critical -> ok: hysteresis
	// produced one transition per phase, no flapping.
	evs := healthEvents(j, 0)
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

// TestAutoFailoverKeysOnPrefixAndCritical: only a check with the armed
// prefix, held critical, reaches the failover function, and a failover
// that fails is journaled.
func TestAutoFailoverKeysOnPrefixAndCritical(t *testing.T) {
	j := events.NewJournal(0)
	w := New(Options{RaiseAfter: 1, ClearAfter: 1, Journal: j})
	states := map[string]State{"node:node3": Critical, "feed:stalls": Critical, "node:node4": Warn}
	for name := range states {
		w.Register(name, func() (State, string) { return states[name], "" })
	}
	var failed []cmap.NodeID
	AutoFailover(w, "node:", func(id cmap.NodeID) error {
		failed = append(failed, id)
		return errors.New("no such node")
	})
	w.Tick()
	if len(failed) != 1 || failed[0] != "node3" {
		t.Fatalf("failed over %v, want [node3]", failed)
	}
	for _, e := range j.Events(events.Filter{Type: events.Topology}) {
		if e.Msg == "auto-failover failed" && e.Node == "node3" && e.Fields["error"] == "no such node" {
			return
		}
	}
	t.Fatal("failed failover was not journaled")
}
