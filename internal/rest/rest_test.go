package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
)

func newServer(t *testing.T) (*Server, *core.Cluster) {
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
	return NewServer(c), c
}

func do(t *testing.T, s *Server, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decode(t *testing.T, rec *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.NewDecoder(bytes.NewReader(rec.Body.Bytes())).Decode(&out); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return out
}

func TestKVEndpoints(t *testing.T) {
	s, _ := newServer(t)
	rec := do(t, s, "PUT", "/buckets/default/docs/user::1", `{"name": "Dipti"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("put: %d %s", rec.Code, rec.Body)
	}
	cas := decode(t, rec)["cas"].(string)
	rec = do(t, s, "GET", "/buckets/default/docs/user::1", "", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "Dipti") {
		t.Fatalf("get: %d %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("X-CAS") != cas {
		t.Errorf("cas header: %s vs %s", rec.Header().Get("X-CAS"), cas)
	}
	// CAS conflict.
	do(t, s, "PUT", "/buckets/default/docs/user::1", `{"v": 2}`, nil)
	rec = do(t, s, "PUT", "/buckets/default/docs/user::1", `{"v": 3}`, map[string]string{"X-CAS": cas})
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale cas put: %d", rec.Code)
	}
	// Durability knobs parse.
	rec = do(t, s, "PUT", "/buckets/default/docs/durable?replicate_to=1&persist_to=true", `{"x": 1}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("durable put: %d %s", rec.Code, rec.Body)
	}
	// Delete and 404.
	rec = do(t, s, "DELETE", "/buckets/default/docs/user::1", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	rec = do(t, s, "GET", "/buckets/default/docs/user::1", "", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("get deleted: %d", rec.Code)
	}
	rec = do(t, s, "GET", "/buckets/nope/docs/x", "", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("bad bucket: %d", rec.Code)
	}
}

func TestViewEndpoints(t *testing.T) {
	s, _ := newServer(t)
	rec := do(t, s, "PUT", "/buckets/default/views/profile",
		`{"filter": "doc.name IS NOT MISSING", "key": "doc.name", "value": "doc.email"}`, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("define view: %d %s", rec.Code, rec.Body)
	}
	do(t, s, "PUT", "/buckets/default/docs/borkar123", `{"name": "Dipti", "email": "dipti@couchbase.com"}`, nil)
	do(t, s, "PUT", "/buckets/default/docs/anon", `{"email": "x@y.z"}`, nil)
	// The paper's REST example: ?key="Dipti"&stale=false
	rec = do(t, s, "GET", `/buckets/default/views/profile?key=%22Dipti%22&stale=false`, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("query view: %d %s", rec.Code, rec.Body)
	}
	out := decode(t, rec)
	rows := out["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("rows: %v", out)
	}
	row := rows[0].(map[string]any)
	if row["value"] != "dipti@couchbase.com" || row["id"] != "borkar123" {
		t.Errorf("row: %v", row)
	}
	// Bad key param.
	rec = do(t, s, "GET", `/buckets/default/views/profile?key=notjson`, "", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad key: %d", rec.Code)
	}
	// Unknown view.
	rec = do(t, s, "GET", `/buckets/default/views/nope`, "", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown view: %d", rec.Code)
	}
	// Drop.
	rec = do(t, s, "DELETE", "/buckets/default/views/profile", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("drop view: %d", rec.Code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	s, _ := newServer(t)
	for i := 0; i < 5; i++ {
		do(t, s, "PUT", fmt.Sprintf("/buckets/default/docs/p%d", i), fmt.Sprintf(`{"age": %d}`, 20+i), nil)
	}
	rec := do(t, s, "POST", "/query", `{"statement": "CREATE PRIMARY INDEX ON default"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ddl: %d %s", rec.Code, rec.Body)
	}
	rec = do(t, s, "POST", "/query",
		`{"statement": "SELECT COUNT(*) AS n FROM default WHERE age >= $min", "args": {"min": 22}, "scan_consistency": "request_plus"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("select: %d %s", rec.Code, rec.Body)
	}
	out := decode(t, rec)
	results := out["results"].([]any)
	if results[0].(map[string]any)["n"] != 3.0 {
		t.Fatalf("results: %v", out)
	}
	// Parse error surfaces as 400.
	rec = do(t, s, "POST", "/query", `{"statement": "SELEKT"}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad stmt: %d", rec.Code)
	}
	rec = do(t, s, "POST", "/query", `not json`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", rec.Code)
	}
}

func TestFTSEndpoints(t *testing.T) {
	s, _ := newServer(t)
	rec := do(t, s, "PUT", "/buckets/default/fts/content", `{"fields": ["title"]}`, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("define fts: %d %s", rec.Code, rec.Body)
	}
	do(t, s, "PUT", "/buckets/default/docs/d1", `{"title": "distributed systems"}`, nil)
	rec = do(t, s, "GET", "/buckets/default/fts/content?q=distributed&consistent=true", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body)
	}
	out := decode(t, rec)
	if hits := out["hits"].([]any); len(hits) != 1 {
		t.Fatalf("hits: %v", out)
	}
	rec = do(t, s, "GET", "/buckets/default/fts/content?q=dist&kind=prefix&consistent=true", "", nil)
	out = decode(t, rec)
	if hits := out["hits"].([]any); len(hits) != 1 {
		t.Fatalf("prefix hits: %v", out)
	}
}

func TestAdminEndpoints(t *testing.T) {
	s, c := newServer(t)
	rec := do(t, s, "GET", "/cluster", "", nil)
	out := decode(t, rec)
	if out["orchestrator"] != "node0" {
		t.Fatalf("cluster: %v", out)
	}
	if len(out["nodes"].([]any)) != 2 {
		t.Fatalf("nodes: %v", out)
	}
	rec = do(t, s, "GET", "/buckets/default/stats", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	// Failover needs a node param.
	rec = do(t, s, "POST", "/cluster/failover", "", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("failover no node: %d", rec.Code)
	}
	c.Kill("node1")
	rec = do(t, s, "POST", "/cluster/failover?node=node1", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("failover: %d %s", rec.Code, rec.Body)
	}
	rec = do(t, s, "POST", "/cluster/rebalance", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("rebalance: %d %s", rec.Code, rec.Body)
	}
}

// TestTopologyEndpointsByMode: in-process, failover and rebalance act
// on the cluster; on a networked process (federation attached) the
// seed owns the topology, so both refuse with 409 and leave the
// process's node and map exactly as they were. The query-side
// endpoints answer while this process holds the whole bucket and
// refuse with 409 once the cluster map names another member.
func TestTopologyEndpointsByMode(t *testing.T) {
	self := "127.0.0.1:11210"
	for _, mode := range []struct {
		name    string
		members []string // nil: in-process
	}{{"in-process", nil}, {"networked solo", []string{self}}, {"networked pair", []string{self, "127.0.0.1:11211"}}} {
		t.Run(mode.name, func(t *testing.T) {
			s, c := newServer(t)
			networked := mode.members != nil
			if networked {
				s.SetFederation(&fakeFed{self: self, nodes: mode.members})
			}
			do(t, s, "PUT", "/buckets/default/views/byN", `{"key": "doc.n"}`, nil)
			do(t, s, "PUT", "/buckets/default/fts/txt", `{"fields": ["body"]}`, nil)
			for _, row := range []struct{ method, path, body string }{
				{"POST", "/query", `{"statement": "SELECT 1"}`},
				{"GET", "/buckets/default/views/byN", ""},
				{"PUT", "/buckets/default/fts/txt2", `{"fields": ["body"]}`},
				{"GET", "/buckets/default/fts/txt?q=x", ""},
			} {
				rec := do(t, s, row.method, row.path, row.body, nil)
				switch partial := len(mode.members) > 1; {
				case !partial && rec.Code >= 300:
					t.Errorf("%s %s: %d %s", row.method, row.path, rec.Code, rec.Body)
				case partial && rec.Code != http.StatusConflict:
					t.Errorf("%s %s: %d %s, want 409", row.method, row.path, rec.Code, rec.Body)
				case partial:
					if msg, _ := decode(t, rec)["error"].(string); msg != ErrPartialData.Error() {
						t.Errorf("%s %s error = %q, want %q", row.method, row.path, msg, ErrPartialData)
					}
				}
			}

			before, err := c.BucketMap("default")
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range []string{"/cluster/failover?node=node0", "/cluster/rebalance"} {
				rec := do(t, s, "POST", path, "", nil)
				if !networked {
					if rec.Code != http.StatusOK {
						t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
					}
					continue
				}
				if rec.Code != http.StatusConflict {
					t.Fatalf("POST %s: %d %s, want 409", path, rec.Code, rec.Body)
				}
				if msg, _ := decode(t, rec)["error"].(string); msg != ErrCoordinatorTopology.Error() {
					t.Errorf("POST %s error = %q, want %q", path, msg, ErrCoordinatorTopology)
				}
			}
			n, err := c.Node("node0")
			if err != nil {
				t.Fatal(err)
			}
			after, _ := c.BucketMap("default")
			if networked && (!n.Alive() || after != before) {
				t.Errorf("refused request still acted: node0 alive=%v, map rev %d -> %d", n.Alive(), before.Rev, after.Rev)
			}
			if !networked && (n.Alive() || after.Rev == before.Rev) {
				t.Errorf("in-process failover did nothing: node0 alive=%v, map rev %d -> %d", n.Alive(), before.Rev, after.Rev)
			}
		})
	}
}

func TestAnalyticsEndpoints(t *testing.T) {
	s, _ := newServer(t)
	do(t, s, "PUT", "/buckets/default/docs/c1", `{"type": "c", "cid": 1}`, nil)
	do(t, s, "PUT", "/buckets/default/docs/o1", `{"type": "o", "customer": 1, "total": 7}`, nil)
	rec := do(t, s, "POST", "/buckets/default/analytics/enable", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("enable: %d %s", rec.Code, rec.Body)
	}
	rec = do(t, s, "POST", "/buckets/default/analytics/query",
		`{"statement": "SELECT c.cid, o.total FROM default o JOIN default c ON o.customer = c.cid WHERE o.type = \"o\"", "consistent": true}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	out := decode(t, rec)
	results := out["results"].([]any)
	if len(results) != 1 || results[0].(map[string]any)["total"] != 7.0 {
		t.Fatalf("results: %v", out)
	}
	// DML rejected.
	rec = do(t, s, "POST", "/buckets/default/analytics/query",
		`{"statement": "DELETE FROM default"}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("dml: %d", rec.Code)
	}
}

func TestPutWithExpiry(t *testing.T) {
	s, _ := newServer(t)
	past := time.Now().Unix() - 5
	rec := do(t, s, "PUT", fmt.Sprintf("/buckets/default/docs/gone?expiry=%d", past), `{"x":1}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("put with expiry: %d", rec.Code)
	}
	rec = do(t, s, "GET", "/buckets/default/docs/gone", "", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("expired doc over rest: %d", rec.Code)
	}
}
