package rest

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/feed"
	"couchgo/internal/health"
	"couchgo/internal/metrics"
)

func TestEventsEndpoint(t *testing.T) {
	s, _ := newServer(t)
	mark := events.Default.LastSeq()

	e := events.New(events.Config, events.SevInfo, "test config event")
	events.Default.Publish(e)
	e = events.New(events.FeedEvent, events.SevWarn, "test feed event")
	e.Service = "gsi"
	events.Default.Publish(e)

	rec := do(t, s, "GET", fmt.Sprintf("/events?since=%d", mark), "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("events: %d %s", rec.Code, rec.Body)
	}
	out := decode(t, rec)
	if got := len(out["events"].([]any)); got != 2 {
		t.Fatalf("got %d events, want 2: %s", got, rec.Body)
	}
	if out["last_seq"].(float64) < float64(mark)+2 {
		t.Fatalf("last_seq = %v", out["last_seq"])
	}

	rec = do(t, s, "GET", fmt.Sprintf("/events?since=%d&type=config", mark), "", nil)
	if got := len(decode(t, rec)["events"].([]any)); got != 1 {
		t.Fatalf("type filter: %d events, want 1", got)
	}
	rec = do(t, s, "GET", fmt.Sprintf("/events?since=%d&severity=warn", mark), "", nil)
	if got := len(decode(t, rec)["events"].([]any)); got != 1 {
		t.Fatalf("severity filter: %d events, want 1", got)
	}
	rec = do(t, s, "GET", fmt.Sprintf("/events?since=%d&limit=1", mark), "", nil)
	evs := decode(t, rec)["events"].([]any)
	if len(evs) != 1 || evs[0].(map[string]any)["msg"] != "test feed event" {
		t.Fatalf("limit should keep the newest event: %s", rec.Body)
	}

	// Bad parameters are 400s, not silently ignored.
	for _, q := range []string{"type=nonsense", "severity=loud", "since=abc", "limit=-1", "limit=x"} {
		rec = do(t, s, "GET", "/events?"+q, "", nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET /events?%s = %d, want 400", q, rec.Code)
		}
	}
}

func TestEventsStream(t *testing.T) {
	s, _ := newServer(t)
	mark := events.Default.LastSeq()

	// No new events within the timeout: empty list, same last_seq.
	rec := do(t, s, "GET", fmt.Sprintf("/events/stream?since=%d&timeout=50ms", mark), "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream timeout: %d %s", rec.Code, rec.Body)
	}
	out := decode(t, rec)
	if len(out["events"].([]any)) != 0 || out["last_seq"].(float64) != float64(mark) {
		t.Fatalf("timed-out stream = %s", rec.Body)
	}

	// Backlog already present: returns immediately.
	events.Default.Publish(events.New(events.Config, events.SevInfo, "backlog event"))
	rec = do(t, s, "GET", fmt.Sprintf("/events/stream?since=%d&timeout=5s", mark), "", nil)
	out = decode(t, rec)
	if len(out["events"].([]any)) == 0 {
		t.Fatalf("stream missed backlog: %s", rec.Body)
	}
	next := uint64(out["last_seq"].(float64))

	// Event published mid-poll wakes the long-poll up.
	stop := time.AfterFunc(20*time.Millisecond, func() {
		events.Default.Publish(events.New(events.Config, events.SevInfo, "live event"))
	})
	defer stop.Stop()
	start := time.Now()
	rec = do(t, s, "GET", fmt.Sprintf("/events/stream?since=%d&timeout=30s", next), "", nil)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("long-poll did not wake on publish (took %s)", elapsed)
	}
	out = decode(t, rec)
	evs := out["events"].([]any)
	if len(evs) == 0 || evs[0].(map[string]any)["msg"] != "live event" {
		t.Fatalf("stream = %s", rec.Body)
	}

	rec = do(t, s, "GET", "/events/stream?since=abc", "", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad since: %d", rec.Code)
	}
	rec = do(t, s, "GET", "/events/stream?timeout=bogus", "", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad timeout: %d", rec.Code)
	}
}

func TestHealthEndpointNoWatchdog(t *testing.T) {
	s, _ := newServer(t)
	rec := do(t, s, "GET", "/health", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("health: %d %s", rec.Code, rec.Body)
	}
	if decode(t, rec)["status"] != "ok" {
		t.Fatalf("health body: %s", rec.Body)
	}
}

// streamNullSource / streamGatedConsumer inject a real feed stall for
// the REST-level health test.
type streamNullSource struct{}

func (streamNullSource) Snapshot(uint64) ([]dcp.Mutation, uint64, error) { return nil, 0, nil }

// streamGatedConsumer parks every Apply until the gate receives or
// closes; parked counts the Applies that have reached it.
type streamGatedConsumer struct {
	gate   chan struct{}
	parked atomic.Int32
}

func (g *streamGatedConsumer) Apply(int, dcp.Mutation) {
	g.parked.Add(1)
	<-g.gate
}

// TestHealthEndpointFeedStallTransitions is the acceptance scenario at
// the HTTP surface: GET /health follows an injected feed stall from ok
// through warn to critical (503), then back to ok once the stall
// clears — with hysteresis, so each phase is one transition.
func TestHealthEndpointFeedStallTransitions(t *testing.T) {
	s, c := newServer(t)

	var clockMu sync.Mutex
	now := time.Unix(2000, 0)
	cfg := health.ClusterCheckConfig{
		FeedStallCritAfter: 5 * time.Second,
		Now: func() time.Time {
			clockMu.Lock()
			defer clockMu.Unlock()
			return now
		},
	}
	w := health.New(health.Options{
		Interval: time.Hour, RaiseAfter: 2, ClearAfter: 2,
		Journal: events.NewJournal(64),
	})
	health.RegisterClusterChecks(w, c, cfg)
	s.SetHealth(w)

	getHealth := func() (int, map[string]any) {
		rec := do(t, s, "GET", "/health", "", nil)
		return rec.Code, decode(t, rec)
	}

	w.Tick()
	if code, out := getHealth(); code != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("baseline health: %d %v", code, out["status"])
	}

	// Inject the stall: park the consumer on one mutation, let a backlog
	// deeper than the feed's stall mark (64) build behind it, then let
	// that one through. The drain comes back to the whole backlog and
	// parks again inside it.
	src := dcp.NewProducer(0, streamNullSource{})
	defer src.Close()
	cons := &streamGatedConsumer{gate: make(chan struct{})}
	f := feed.New("rest-health-stall", cons, feed.Config{Service: "rest-health-test"})
	defer f.Close()
	if err := f.Attach(0, src); err != nil {
		t.Fatal(err)
	}
	src.Publish(dcp.Mutation{Key: "k1", Seqno: 1})
	waitForCond(t, "consumer parked", func() bool { return cons.parked.Load() == 1 })
	for i := 2; i <= 101; i++ {
		src.Publish(dcp.Mutation{Key: fmt.Sprintf("k%d", i), Seqno: uint64(i)})
	}
	cons.gate <- struct{}{}
	stalled := metrics.Default.Gauge("couchgo_feed_stalled", "service", "rest-health-test")
	waitForCond(t, "stall gauge raised", func() bool { return stalled.Value() > 0 })

	w.Tick()
	w.Tick()
	if code, out := getHealth(); code != http.StatusOK || out["status"] != "warn" {
		t.Fatalf("stalled health: %d %v", code, out["status"])
	}

	clockMu.Lock()
	now = now.Add(6 * time.Second)
	clockMu.Unlock()
	w.Tick()
	w.Tick()
	code, out := getHealth()
	if code != http.StatusServiceUnavailable || out["status"] != "critical" {
		t.Fatalf("aged stall health: %d %v", code, out["status"])
	}
	// The per-check detail names the culprit.
	found := false
	for _, raw := range out["checks"].([]any) {
		chk := raw.(map[string]any)
		if chk["name"] == "feed:stalls" && chk["state"] == "critical" {
			found = true
		}
	}
	if !found {
		t.Fatalf("feed:stalls not critical in %s", out)
	}

	close(cons.gate)
	waitForCond(t, "stall gauge cleared", func() bool { return stalled.Value() == 0 })
	w.Tick()
	w.Tick()
	if code, out := getHealth(); code != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("recovered health: %d %v", code, out["status"])
	}
}

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMetricsContentTypeAndMethod(t *testing.T) {
	s, _ := newServer(t)
	rec := do(t, s, "GET", "/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("Content-Type = %q, want exact exposition type", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "couchgo_build_info{") || !strings.Contains(body, "couchgo_uptime_seconds ") {
		t.Fatalf("metrics missing build info / uptime:\n%s", body[:min(len(body), 400)])
	}
	if !strings.Contains(body, "couchgo_events_published_total") {
		t.Fatal("metrics missing event journal accounting")
	}

	for _, method := range []string{"POST", "PUT", "DELETE"} {
		rec = do(t, s, method, "/metrics", "", nil)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s /metrics = %d, want 405", method, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); allow != "GET" {
			t.Errorf("%s /metrics Allow = %q, want GET", method, allow)
		}
	}
}

func TestStatsDetailServerBlock(t *testing.T) {
	s, _ := newServer(t)
	rec := do(t, s, "GET", "/stats/detail", "", nil)
	srv, ok := decode(t, rec)["server"].(map[string]any)
	if !ok {
		t.Fatalf("no server block: %s", rec.Body)
	}
	if srv["version"] == "" || srv["go"] == "" {
		t.Fatalf("server block = %v", srv)
	}
	if _, ok := srv["uptime_seconds"].(float64); !ok {
		t.Fatalf("uptime_seconds missing: %v", srv)
	}
}

// TestTracesErrorPaths covers the /traces surface's failure modes.
func TestTracesErrorPaths(t *testing.T) {
	s, _ := newServer(t)

	rec := do(t, s, "GET", "/traces/notanumber", "", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("non-numeric trace id: %d", rec.Code)
	}
	rec = do(t, s, "GET", "/traces/999999999", "", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown trace id: %d", rec.Code)
	}
	rec = do(t, s, "GET", "/traces?op=bogus", "", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad op filter: %d %s", rec.Code, rec.Body)
	}
	rec = do(t, s, "GET", "/traces?op=kv:set", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("valid op filter: %d", rec.Code)
	}
	rec = do(t, s, "POST", "/traces/config", `{not json`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed trace config: %d", rec.Code)
	}
	rec = do(t, s, "POST", "/traces/config", `{"thresholds": {"kv:set": "not-a-duration"}}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad threshold duration: %d", rec.Code)
	}
	// And the happy path still emits a config event.
	mark := events.Default.LastSeq()
	rec = do(t, s, "POST", "/traces/config", `{"rate": 0}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace config: %d %s", rec.Code, rec.Body)
	}
	evs := events.Default.Events(events.Filter{Type: events.Config, SinceSeq: mark})
	if len(evs) == 0 {
		t.Fatal("no config event journaled for trace config change")
	}
}
