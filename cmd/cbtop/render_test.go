package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/events"
	"couchgo/internal/health"
	"couchgo/internal/metrics"
	"couchgo/internal/rest"
)

// newNode is a 2-node in-process cluster behind the real REST facade,
// watchdog attached and ticked once so /health lists its checks.
func newNode(t *testing.T) (*rest.Server, *core.Cluster) {
	t.Helper()
	c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < 2; i++ {
		c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices)
	}
	if err := c.CreateBucket("default", core.BucketOptions{NumReplicas: 1}); err != nil {
		t.Fatal(err)
	}
	w := health.New(health.Options{Interval: time.Hour})
	health.RegisterClusterChecks(w, c, time.Now)
	w.Tick()
	s := rest.NewServer(c)
	s.SetHealth(w)
	return s, c
}

// fakeFed joins rest.Servers the way the wire's OpFederate does, minus
// the socket; a listed member with no server behind it is unreachable.
type fakeFed struct {
	self  string
	peers map[string]*rest.Server
	nodes []string
}

func (f *fakeFed) Self() string    { return f.self }
func (f *fakeFed) Nodes() []string { return f.nodes }
func (f *fakeFed) Fetch(_ context.Context, node, domain string, payload []byte) ([]byte, error) {
	p, ok := f.peers[node]
	if !ok {
		return nil, fmt.Errorf("dial %s: connection refused", node)
	}
	return p.Observe(domain, payload)
}

func wantAll(t *testing.T, frame string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
}

// TestFrameFromRealServer runs cbtop's poll and render against the
// real server: whatever the server encodes is what the console draws.
func TestFrameFromRealServer(t *testing.T) {
	s, c := newNode(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const writes = 9
	cl, err := c.OpenBucket("default")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		if _, err := cl.Set(context.Background(), fmt.Sprintf("k%d", i), []byte(`{"n": 1}`), 0); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"statement": "SELECT 1"}`))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %v %v", err, resp)
	}
	resp.Body.Close()

	snap := pollSnapshot(ts.Client(), ts.URL, 10)
	if snap.Err != nil {
		t.Fatal(snap.Err)
	}
	frame := render(snap, 10)

	local, ok := snap.Metrics.Nodes["local"]
	if !ok || local.Server.UptimeSeconds <= 0 {
		t.Fatalf("no local member with a running uptime: %+v", snap.Metrics)
	}
	wantAll(t, frame,
		"CLUSTER HEALTH: OK",
		"feed:stalls", // a watchdog check under the member
		"MEMBER", "local", local.Server.Version+" "+local.Server.Go,
		"── local ──",
		"DCP-LAG", "replica:node",
		"HOT PATH",
		"KV LATENCY", `op="set"`,
		"QUERY LATENCY",
		"EVENTS\n", "bucket created",
	)
	var items int64
	for _, st := range local.Buckets["default"] {
		items += st.Items
		row := fmt.Sprintf("%-10s %-8s %-5v %9d ", "default", st.ID, true, st.Items)
		wantAll(t, frame, row)
	}
	if items != writes {
		t.Errorf("bucket rows add up to %d items, wrote %d:\n%s", items, writes, frame)
	}
	for _, l := range strings.Split(frame, "\n") {
		if strings.Contains(l, "bucket created") && !strings.Contains(l, " local ") {
			t.Errorf("event line not origin-tagged: %q", l)
		}
	}
}

// TestFrameTwoMembersOneUnreachable: the federated frame has a row and
// a section per answering member, and a member that cannot be reached
// is drawn critical without costing the rest of the frame.
func TestFrameTwoMembersOneUnreachable(t *testing.T) {
	a, _ := newNode(t)
	b, _ := newNode(t)
	b.SetFederation(&fakeFed{self: "nodeB"})
	a.SetFederation(&fakeFed{
		self:  "nodeA",
		peers: map[string]*rest.Server{"nodeB": b},
		nodes: []string{"nodeA", "nodeB", "nodeC"},
	})
	ts := httptest.NewServer(a)
	defer ts.Close()

	snap := pollSnapshot(ts.Client(), ts.URL, 5)
	if snap.Err != nil {
		t.Fatal(snap.Err)
	}
	if snap.Metrics.Nodes["nodeB"].Node != "nodeB" {
		t.Fatalf("peer payload not labeled by the peer: %+v", snap.Metrics.Nodes["nodeB"].Node)
	}
	frame := render(snap, 5)
	wantAll(t, frame,
		"CLUSTER HEALTH: CRITICAL",
		"!! nodeC                  critical dial nodeC: connection refused",
		"── nodeA ──", "── nodeB ──",
		"nodeC                   !! dial nodeC: connection refused",
		"EVENTS\n",
	)
	if strings.Contains(frame, "── nodeC ──") {
		t.Errorf("unreachable member got a section:\n%s", frame)
	}
}

func TestRenderEventTailBounded(t *testing.T) {
	at := time.Date(2026, 1, 2, 10, 29, 58, 0, time.UTC)
	older := events.New(events.FeedEvent, events.SevWarn, "feed stall: consumer backpressure")
	older.Time = at
	newer := events.New(events.Health, events.SevCritical, "health check node:node1 -> critical")
	newer.Time, newer.Node = at.Add(time.Second), "node0"
	s := snapshot{Addr: "http://x", When: at, Events: []rest.ClusterEvent{
		{Origin: "a:11210", Event: older}, {Origin: "b:11210", Event: newer},
	}}
	out := render(s, 1)
	if strings.Contains(out, "feed stall: consumer backpressure") {
		t.Fatalf("tail not bounded to newest event:\n%s", out)
	}
	wantAll(t, out, "10:29:59 CRITICAL b:11210", "health check node:node1 -> critical [node0]")
}

func TestRenderPollError(t *testing.T) {
	s := snapshot{Addr: "http://x", When: time.Now(), Err: errors.New("connection refused")}
	out := render(s, 10)
	if !strings.Contains(out, "poll failed: connection refused") {
		t.Fatalf("no error banner:\n%s", out)
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := fmtBytes(3 << 30); got != "3.0GiB" {
		t.Errorf("fmtBytes = %s", got)
	}
	if got := fmtLatency(0); got != "-" {
		t.Errorf("fmtLatency(0) = %s", got)
	}
	if got := fmtLatency(2.5); got != "2.50s" {
		t.Errorf("fmtLatency(2.5) = %s", got)
	}
	if got := fmtUptime(3725); got != "1h2m" {
		t.Errorf("fmtUptime = %s", got)
	}
}

func TestFamQuantilesWeights(t *testing.T) {
	hist := func(count uint64, p50, p99 float64) metrics.SeriesValue {
		return metrics.SeriesValue{Hist: &metrics.HistogramStats{Count: count, P50: p50, P99: p99}}
	}
	p50, p99 := famQuantiles(map[string]metrics.SeriesValue{
		"a": hist(90, 0.001, 0.002),
		"b": hist(10, 0.011, 0.022),
		"c": hist(0, 99, 99), // idle series must not skew
	})
	if p50 < 0.0019 || p50 > 0.0021 {
		t.Fatalf("weighted p50 = %v, want ~0.002", p50)
	}
	if p99 < 0.0039 || p99 > 0.0041 {
		t.Fatalf("weighted p99 = %v, want ~0.004", p99)
	}
	if a, b := famQuantiles(nil); a != 0 || b != 0 {
		t.Fatal("absent family must yield zeros")
	}
}
