package rest

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/metrics"
	"couchgo/internal/transport"
)

// quiesce waits until nothing in the background is still moving the
// numbers a snapshot reports: flush queues empty, replicas caught up.
func quiesce(t *testing.T, s *Server) {
	t.Helper()
	waitForCond(t, "queues and DCP drained", func() bool {
		n := s.snapshot()
		for b, nodes := range n.Buckets {
			for _, st := range nodes {
				if st.QueueDepth > 0 {
					return false
				}
			}
			for _, lag := range n.DCPLag[b] {
				if lag > 0 {
					return false
				}
			}
		}
		return metrics.Default.Gauge("couchgo_flusher_queue_depth").Value() == 0
	})
}

// canon is a snapshot's JSON form with the one field that moves on its
// own zeroed, for comparing encodings of the same payload.
func canon(t *testing.T, n NodeSnapshot) string {
	t.Helper()
	n.Server.UptimeSeconds = 0
	raw, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestOnePayloadThreeEncodings pins the tentpole: one snapshot() value
// is what /stats/detail serves, what the "metrics" federation domain
// serves, and where every derived /metrics gauge gets its number.
func TestOnePayloadThreeEncodings(t *testing.T) {
	s, _ := newServer(t)
	for i := 0; i < 12; i++ {
		if rec := do(t, s, "PUT", fmt.Sprintf("/buckets/default/docs/snap%d", i), `{"i": 1}`, nil); rec.Code != http.StatusOK {
			t.Fatalf("put: %d %s", rec.Code, rec.Body)
		}
	}
	do(t, s, "DELETE", "/buckets/default/docs/snap0", "", nil)
	quiesce(t, s)
	want := s.snapshot()

	// (a) /stats/detail decodes back into the type it was built as.
	var detail NodeSnapshot
	rec := do(t, s, "GET", "/stats/detail", "", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &detail); err != nil {
		t.Fatalf("/stats/detail does not decode into NodeSnapshot: %v", err)
	}
	if got := canon(t, detail); got != canon(t, *want) {
		t.Errorf("/stats/detail differs from snapshot():\n got %s\nwant %s", got, canon(t, *want))
	}
	if detail.Server.UptimeSeconds <= 0 || detail.Server.Version == "" {
		t.Errorf("server block: %+v", detail.Server)
	}

	// (b) so does the federation domain, and /cluster/metrics is that
	// payload under the member's label.
	raw, err := s.Observe("metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	var fed NodeSnapshot
	if err := json.Unmarshal(raw, &fed); err != nil {
		t.Fatalf("metrics domain does not decode into NodeSnapshot: %v", err)
	}
	if got := canon(t, fed); got != canon(t, *want) {
		t.Errorf("metrics domain differs from snapshot():\n got %s\nwant %s", got, canon(t, *want))
	}
	var cm ClusterMetrics
	rec = do(t, s, "GET", "/cluster/metrics", "", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &cm); err != nil {
		t.Fatal(err)
	}
	if got := canon(t, cm.Nodes["local"]); got != canon(t, *want) || len(cm.Errors) != 0 {
		t.Errorf("/cluster/metrics local member differs from snapshot() (errors %v):\n got %s", cm.Errors, got)
	}

	// /buckets/{b}/stats is the same slice under the same keys.
	var bs struct {
		Nodes []core.NodeStats `json:"nodes"`
	}
	rec = do(t, s, "GET", "/buckets/default/stats", "", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &bs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bs.Nodes, want.Buckets["default"]) {
		t.Errorf("/buckets/default/stats = %+v, want %+v", bs.Nodes, want.Buckets["default"])
	}

	// (c) every derived gauge on /metrics is a field of the struct.
	samples := promParse(t, do(t, s, "GET", "/metrics", "", nil).Body.String())
	check := func(key string, v float64) {
		t.Helper()
		if got, ok := samples[key]; !ok || got != v {
			t.Errorf("%s = %v (present %v), snapshot says %v", key, got, ok, v)
		}
	}
	var items int64
	for _, st := range want.Buckets["default"] {
		ls := metrics.LabelString("bucket", "default", "node", string(st.ID))
		check("couchgo_bucket_items"+ls, float64(st.Items))
		check("couchgo_bucket_mem_used_bytes"+ls, float64(st.MemUsed))
		check("couchgo_bucket_tombstones"+ls, float64(st.Tombstones))
		check("couchgo_bucket_nonresident_items"+ls, float64(st.NonResident))
		check("couchgo_bucket_queue_depth"+ls, float64(st.QueueDepth))
		check("couchgo_storage_file_bytes"+ls, float64(st.DiskBytes))
		check("couchgo_storage_live_bytes"+ls, float64(st.DiskLiveBytes))
		items += st.Items
	}
	if items != 11 {
		t.Errorf("snapshot counts %d items after 12 puts and a delete", items)
	}
	if len(want.DCPLag["default"]) == 0 {
		t.Error("no DCP streams in the snapshot of a replicated bucket")
	}
	for stream, lag := range want.DCPLag["default"] {
		check("couchgo_dcp_lag"+metrics.LabelString("bucket", "default", "stream", stream), float64(lag))
	}
	for _, ln := range want.Nodes {
		check("couchgo_node_up"+metrics.LabelString("node", string(ln.ID)), 1)
	}
	check("couchgo_slow_queries_retained", float64(len(want.SlowQueries.Entries)))
	check("couchgo_events_published_total", float64(want.Events.Published))
}

var familyName = regexp.MustCompile("`(couchgo_[a-z0-9_]+)`")

// TestDesignListsEveryMetricFamily keeps DESIGN.md §4's "Metric names"
// table and the code from drifting, in both directions: every family a
// driven server exposes is a row of the right kind, and every row is a
// family the server exposes.
func TestDesignListsEveryMetricFamily(t *testing.T) {
	c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.AddNode(cmap.NodeID("node0"), cmap.AllServices)
	if err := c.CreateBucket("default", core.BucketOptions{}); err != nil {
		t.Fatal(err)
	}
	s := NewServer(c)

	// KV set/get/delete and a query over REST, then one op over the wire.
	do(t, s, "PUT", "/buckets/default/docs/k", `{"x": 1}`, nil)
	do(t, s, "GET", "/buckets/default/docs/k", "", nil)
	do(t, s, "DELETE", "/buckets/default/docs/k", "", nil)
	if rec := do(t, s, "POST", "/query", `{"statement": "SELECT 1"}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	node, err := transport.StartNode(transport.NodeOptions{
		Cluster: c, Bucket: "default", KVAddr: "127.0.0.1:0", ClusterSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	pool := transport.NewPool()
	t.Cleanup(pool.Close)
	wire := core.NewClient(transport.NewRouter("default", []string{node.KVAddr()}, pool), "default")
	if _, err := wire.Set(context.Background(), "w", []byte(`{}`), 0); err != nil {
		t.Fatalf("wire set: %v", err)
	}
	// The session observes an op's latency after it responds and before it
	// reads the next request: a second op orders the first one's
	// couchgo_transport_op_seconds sample before the scrape.
	if _, err := wire.Get(context.Background(), "w"); err != nil {
		t.Fatalf("wire get: %v", err)
	}

	scraped := map[string]string{} // family -> kind
	for _, line := range strings.Split(do(t, s, "GET", "/metrics", "", nil).Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			scraped[f[2]] = f[3]
		}
	}

	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(doc), "### Metric names")
	end := strings.Index(string(doc), "### Query profiling")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §4 \"Metric names\" followed by \"Query profiling\"")
	}
	listed := map[string]string{}
	for _, line := range strings.Split(string(doc[start:end]), "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 4 || !strings.Contains(cols[1], "`couchgo_") {
			continue
		}
		for _, m := range familyName.FindAllStringSubmatch(cols[1], -1) {
			if _, dup := listed[m[1]]; dup {
				t.Errorf("DESIGN.md §4 lists %s twice", m[1])
			}
			listed[m[1]] = strings.Fields(cols[2])[0]
		}
	}
	for fam, kind := range scraped {
		if listed[fam] != kind {
			t.Errorf("/metrics exposes %s (%s); DESIGN.md §4 lists it as %q", fam, kind, listed[fam])
		}
	}
	for fam := range listed {
		if _, ok := scraped[fam]; !ok {
			t.Errorf("DESIGN.md §4 lists %s, which the driven server does not expose", fam)
		}
	}
}
