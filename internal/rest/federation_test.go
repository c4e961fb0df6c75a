package rest

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"couchgo/internal/trace"
)

// fakeFed wires two in-process rest.Servers into a two-"process"
// federation: fetches for the peer delegate to its Observe, exactly
// what the wire's OpFederate handler does, minus the socket.
type fakeFed struct {
	self  string
	peers map[string]*Server // node -> peer server (self excluded)
	nodes []string
	errs  map[string]error // node -> forced fetch failure
}

func (f *fakeFed) Self() string    { return f.self }
func (f *fakeFed) Nodes() []string { return f.nodes }
func (f *fakeFed) Fetch(_ context.Context, node, domain string, payload []byte) ([]byte, error) {
	if err := f.errs[node]; err != nil {
		return nil, err
	}
	p, ok := f.peers[node]
	if !ok {
		return nil, fmt.Errorf("no such node %s", node)
	}
	return p.Observe(domain, payload)
}

func TestClusterEndpointsSingleProcess(t *testing.T) {
	s, _ := newServer(t) // fed nil: one-node degenerate cluster

	rec := do(t, s, "GET", "/cluster/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d %s", rec.Code, rec.Body)
	}
	out := decode(t, rec)
	nodes, _ := out["nodes"].(map[string]any)
	local, _ := nodes["local"].(map[string]any)
	if local == nil {
		t.Fatalf("no local node payload: %v", out)
	}
	if local["node"] != "local" {
		t.Fatalf("payload not node-labeled: %v", local["node"])
	}
	if _, ok := local["metrics"].(map[string]any); !ok {
		t.Fatal("local payload missing metrics snapshot")
	}

	rec = do(t, s, "GET", "/cluster/health", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("health: %d %s", rec.Code, rec.Body)
	}
	if decode(t, rec)["status"] != "ok" {
		t.Fatalf("health status: %s", rec.Body)
	}

	rec = do(t, s, "GET", "/cluster/events", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("events: %d %s", rec.Code, rec.Body)
	}
}

func TestClusterFanoutAndWorstOf(t *testing.T) {
	a, _ := newServer(t)
	b, _ := newServer(t)
	b.SetFederation(&fakeFed{self: "nodeB"})
	fed := &fakeFed{
		self:  "nodeA",
		peers: map[string]*Server{"nodeB": b},
		nodes: []string{"nodeA", "nodeB", "nodeC"},
		errs:  map[string]error{"nodeC": fmt.Errorf("dial nodeC: connection refused")},
	}
	a.SetFederation(fed)

	// Metrics: both reachable members answer with their own label, the
	// unreachable one lands in errors.
	rec := do(t, a, "GET", "/cluster/metrics", "", nil)
	out := decode(t, rec)
	nodes, _ := out["nodes"].(map[string]any)
	for _, want := range []string{"nodeA", "nodeB"} {
		nm, _ := nodes[want].(map[string]any)
		if nm == nil || nm["node"] != want {
			t.Fatalf("node %s payload missing or mislabeled: %v", want, nodes)
		}
	}
	errs, _ := out["errors"].(map[string]any)
	if _, ok := errs["nodeC"]; !ok {
		t.Fatalf("unreachable node not reported: %v", out)
	}

	// Health: an unreachable member makes the roll-up critical → 503.
	rec = do(t, a, "GET", "/cluster/health", "", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("health with dead member: %d, want 503", rec.Code)
	}
	if decode(t, rec)["status"] != "critical" {
		t.Fatalf("worst-of status: %s", rec.Body)
	}

	// Events: merged tail entries carry their origin.
	rec = do(t, a, "GET", "/cluster/events?limit=5", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("events: %d %s", rec.Code, rec.Body)
	}
	var evOut struct {
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &evOut); err != nil {
		t.Fatal(err)
	}
	for _, e := range evOut.Events {
		if o, _ := e["origin"].(string); o != "nodeA" && o != "nodeB" {
			t.Fatalf("event without origin tag: %v", e)
		}
	}
}

func TestTraceConfigStrictAndBroadcast(t *testing.T) {
	s, _ := newServer(t)
	t.Cleanup(func() {
		trace.Default.SetRate(0)
		trace.Default.Clear()
	})

	// Unknown fields are a 400 naming the field, nothing applied.
	trace.Default.SetRate(0)
	rec := do(t, s, "POST", "/traces/config", `{"rate": 5, "thresolds": {}}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s, want 400", rec.Code, rec.Body)
	}
	if msg, _ := decode(t, rec)["error"].(string); !strings.Contains(msg, "thresolds") {
		t.Fatalf("400 does not name the field: %q", msg)
	}
	if trace.Default.Rate() != 0 {
		t.Fatalf("rejected config applied rate %d", trace.Default.Rate())
	}

	// Valid config applies and, with federation, broadcasts to peers.
	b, _ := newServer(t)
	b.SetFederation(&fakeFed{self: "nodeB"})
	fetched := false
	s.SetFederation(&fedSpy{fakeFed{
		self:  "nodeA",
		peers: map[string]*Server{"nodeB": b},
		nodes: []string{"nodeA", "nodeB"},
	}, &fetched})
	rec = do(t, s, "POST", "/traces/config", `{"rate": 16}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("valid config: %d %s", rec.Code, rec.Body)
	}
	out := decode(t, rec)
	if int(out["rate"].(float64)) != 16 {
		t.Fatalf("rate in response: %v", out["rate"])
	}
	cluster, _ := out["cluster"].(map[string]any)
	if cluster["nodeB"] != "ok" {
		t.Fatalf("broadcast result: %v", out["cluster"])
	}
	if !fetched {
		t.Fatal("config never reached the peer")
	}
}

type fedSpy struct {
	fakeFed
	hit *bool
}

func (f *fedSpy) Fetch(ctx context.Context, node, domain string, payload []byte) ([]byte, error) {
	if domain == "trace-config" {
		*f.hit = true
	}
	return f.fakeFed.Fetch(ctx, node, domain, payload)
}

func TestStitchedTraceEndpoint(t *testing.T) {
	s, _ := newServer(t)
	s.SetFederation(&fakeFed{self: "nodeA", peers: map[string]*Server{}, nodes: []string{"nodeA"}})
	trace.Default.SetRate(1)
	t.Cleanup(func() {
		trace.Default.SetRate(0)
		trace.Default.Clear()
	})

	rec := do(t, s, "PUT", "/buckets/default/docs/traced::1", `{"v":1}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("put: %d %s", rec.Code, rec.Body)
	}
	id := rec.Header().Get("X-Trace-Id")
	if id == "" {
		t.Fatal("sampled write returned no X-Trace-Id")
	}

	rec = do(t, s, "GET", "/traces/"+id, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stitched trace: %d %s", rec.Code, rec.Body)
	}
	out := decode(t, rec)
	if out["op"] != "rest:put" {
		t.Fatalf("root op: %v", out["op"])
	}
	nodes, _ := out["nodes"].([]any)
	if len(nodes) != 1 || nodes[0] != "nodeA" {
		t.Fatalf("contributing nodes: %v", nodes)
	}
	spans, _ := out["spans"].(map[string]any)
	if spans == nil || spans["name"] != "rest:put" || spans["node"] != "nodeA" {
		t.Fatalf("stitched root span: %v", spans)
	}

	// Unknown ID fans out, finds nothing anywhere, 404s.
	rec = do(t, s, "GET", "/traces/999999999", "", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing trace: %d %s", rec.Code, rec.Body)
	}
}
