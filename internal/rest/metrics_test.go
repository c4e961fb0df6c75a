package rest

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
)

// promParse validates a Prometheus text exposition body: every TYPE
// line appears once per family with a known kind, every sample follows
// its family's TYPE line, each family's samples are contiguous (a
// family resumed after another began would need a second TYPE line),
// and no sample key repeats. It returns the samples keyed by
// `name{labels}`.
func promParse(t *testing.T, body string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	samples := map[string]float64{}
	cur, ended := "", map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			name, kind := parts[2], parts[3]
			if _, dup := types[name]; dup {
				t.Fatalf("duplicate TYPE line for %s", name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("unknown kind %q in %q", kind, line)
			}
			types[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = v
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(name, suf); trimmed != name && types[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no preceding TYPE line", key)
		}
		if base != cur {
			if ended[base] {
				t.Errorf("family %s is not contiguous: %q resumes it after %s", base, key, cur)
			}
			ended[cur], cur = true, base
		}
	}
	return samples
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := newServer(t)
	for i := 0; i < 25; i++ {
		key := "mkey" + strconv.Itoa(i)
		if rec := do(t, s, "PUT", "/buckets/default/docs/"+key, `{"i": `+strconv.Itoa(i)+`}`, nil); rec.Code != http.StatusOK {
			t.Fatalf("put %s: %d", key, rec.Code)
		}
		if rec := do(t, s, "GET", "/buckets/default/docs/"+key, "", nil); rec.Code != http.StatusOK {
			t.Fatalf("get %s: %d", key, rec.Code)
		}
	}
	if rec := do(t, s, "POST", "/query", `{"statement": "SELECT META().id FROM default USE KEYS [\"mkey1\"]"}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}

	rec := do(t, s, "GET", "/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	samples := promParse(t, rec.Body.String())

	// Required coverage: KV latency + ops, cache hit/miss, flusher
	// queue depth (process-wide from the registry, per bucket and node
	// from the snapshot), query timings, per-bucket and node gauges. (The
	// registry is process-global, so counter values may include other
	// tests' traffic; assert lower bounds only.)
	for _, key := range []string{
		`couchgo_kv_op_duration_seconds_count{op="get"}`,
		`couchgo_kv_op_duration_seconds_count{op="set"}`,
		`couchgo_kv_ops_total{op="set"}`,
		`couchgo_cache_hits_total`,
		`couchgo_cache_misses_total`,
		`couchgo_query_duration_seconds_count`,
		`couchgo_stage_seconds_count{stage="query:parse"}`,
		`couchgo_flusher_queue_depth`,
		`couchgo_bucket_queue_depth{bucket="default",node="node0"}`,
		`couchgo_bucket_items{bucket="default",node="node0"}`,
		`couchgo_storage_file_bytes{bucket="default",node="node0"}`,
		`couchgo_node_up{node="node0"}`,
		`couchgo_node_up{node="node1"}`,
	} {
		if _, ok := samples[key]; !ok {
			t.Errorf("missing sample %s", key)
		}
	}
	if samples[`couchgo_kv_ops_total{op="set"}`] < 25 {
		t.Errorf("set ops = %v, want >= 25", samples[`couchgo_kv_ops_total{op="set"}`])
	}
	if samples[`couchgo_cache_hits_total`] < 25 {
		t.Errorf("cache hits = %v, want >= 25", samples[`couchgo_cache_hits_total`])
	}
	if samples[`couchgo_query_duration_seconds_count`] < 1 {
		t.Errorf("query count = %v, want >= 1", samples[`couchgo_query_duration_seconds_count`])
	}
	// Replica DCP streams are open (replicas=1), so lag gauges exist
	// even when fully drained.
	foundLag := false
	for key := range samples {
		if strings.HasPrefix(key, `couchgo_dcp_lag{bucket="default"`) {
			foundLag = true
			break
		}
	}
	if !foundLag {
		t.Error("no couchgo_dcp_lag sample for bucket default")
	}
}

func TestStatsDetailRoundTrip(t *testing.T) {
	c, err := core.NewCluster(core.Config{
		Dir:                t.TempDir(),
		NumVBuckets:        8,
		SlowQueryThreshold: time.Nanosecond, // every statement is "slow"
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.AddNode(cmap.NodeID("node0"), cmap.AllServices)
	if err := c.CreateBucket("default", core.BucketOptions{}); err != nil {
		t.Fatal(err)
	}
	s := NewServer(c)
	do(t, s, "PUT", "/buckets/default/docs/d1", `{"x": 1}`, nil)
	if rec := do(t, s, "POST", "/query", `{"statement": "SELECT * FROM default USE KEYS [\"d1\"]"}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}

	rec := do(t, s, "GET", "/stats/detail", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats/detail: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	out := decode(t, rec)
	for _, k := range []string{"orchestrator", "nodes", "buckets", "metrics", "slow_queries"} {
		if _, ok := out[k]; !ok {
			t.Errorf("missing top-level key %q", k)
		}
	}
	buckets := out["buckets"].(map[string]any)
	if _, ok := buckets["default"]; !ok {
		t.Fatalf("missing bucket default: %v", buckets)
	}
	mets := out["metrics"].(map[string]any)
	qd, ok := mets["couchgo_query_duration_seconds"].(map[string]any)
	if !ok {
		t.Fatal("metrics missing couchgo_query_duration_seconds")
	}
	stats := qd[""].(map[string]any)
	if stats["count"].(float64) < 1 {
		t.Errorf("query histogram count %v, want >= 1", stats["count"])
	}
	slow := out["slow_queries"].(map[string]any)
	if slow["total"].(float64) < 1 {
		t.Errorf("slow query total %v, want >= 1 (threshold 1ns)", slow["total"])
	}
	entries := slow["entries"].([]any)
	found := false
	for _, e := range entries {
		if strings.Contains(e.(map[string]any)["statement"].(string), "SELECT * FROM default") {
			found = true
		}
	}
	if !found {
		t.Errorf("slow query entries missing the SELECT: %v", entries)
	}
	// The whole document must survive a JSON round-trip.
	if _, err := json.Marshal(out); err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
}

func TestStatsUnknownBucket(t *testing.T) {
	s, _ := newServer(t)
	rec := do(t, s, "GET", "/buckets/nope/stats", "", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown bucket stats: %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	if msg := decode(t, rec)["error"]; msg == nil {
		t.Error("missing error body")
	}
}

func TestQueryProfileTimings(t *testing.T) {
	s, _ := newServer(t)
	for i := 0; i < 5; i++ {
		do(t, s, "PUT", "/buckets/default/docs/p"+strconv.Itoa(i), `{"n": `+strconv.Itoa(i)+`}`, nil)
	}
	rec := do(t, s, "POST", "/query",
		`{"statement": "SELECT p.n FROM default p USE KEYS [\"p0\", \"p1\", \"p2\"] WHERE p.n >= 1", "profile": "timings"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	out := decode(t, rec)
	prof, ok := out["profile"].(map[string]any)
	if !ok {
		t.Fatalf("no profile section: %v", out)
	}
	if _, ok := prof["elapsedTime"].(string); !ok {
		t.Errorf("missing elapsedTime: %v", prof)
	}
	timings, ok := prof["executionTimings"].([]any)
	if !ok || len(timings) == 0 {
		t.Fatalf("missing executionTimings: %v", prof)
	}
	phases := map[string]bool{}
	for _, tm := range timings {
		m := tm.(map[string]any)
		op, _ := m["#operator"].(string)
		if op == "" {
			t.Errorf("timing without #operator: %v", m)
		}
		if _, err := time.ParseDuration(m["execTime"].(string)); err != nil {
			t.Errorf("bad execTime in %v: %v", m, err)
		}
		phases[op] = true
	}
	for _, want := range []string{"parse", "plan", "fetch", "filter", "project"} {
		if !phases[want] {
			t.Errorf("missing phase %q in %v", want, timings)
		}
	}

	// Without profile, no profile section appears.
	rec = do(t, s, "POST", "/query", `{"statement": "SELECT 1"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("plain query: %d %s", rec.Code, rec.Body)
	}
	if _, ok := decode(t, rec)["profile"]; ok {
		t.Error("unsolicited profile section")
	}
}
