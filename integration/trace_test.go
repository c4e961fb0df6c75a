//go:build clustertest

package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"couchgo/internal/rest"
)

// traceNode mirrors the stitched span tree of GET /traces/{id}.
type traceNode struct {
	Name     string       `json:"name"`
	Node     string       `json:"node"`
	Children []*traceNode `json:"children"`
}

func walkTrace(n *traceNode, visit func(*traceNode)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children {
		walkTrace(c, visit)
	}
}

// TestDistributedTrace is the tentpole acceptance run for wire trace
// propagation: three cbserver processes sampling every request, one
// ReplicateTo=1 write through one node's REST API, and the returned
// trace ID fetched from a DIFFERENT node must come back as a single
// stitched tree whose spans cross all three process boundaries —
// client REST root, active's server:set, replica's replica:apply.
func TestDistributedTrace(t *testing.T) {
	bin := buildServer(t)
	ports := freePorts(t, 6)

	seed := startProc(t, bin, ports[0], ports[1], "-cluster-size", "3", "-trace-rate", "1")
	p1 := startProc(t, bin, ports[2], ports[3], "-join", seed.kvAddr, "-trace-rate", "1")
	p2 := startProc(t, bin, ports[4], ports[5], "-join", seed.kvAddr, "-trace-rate", "1")
	all := map[string]bool{seed.kvAddr: true, p1.kvAddr: true, p2.kvAddr: true}

	client := &http.Client{Timeout: 15 * time.Second}

	put := func(key string) (traceID string, ok bool) {
		req, err := http.NewRequest(http.MethodPut,
			seed.http+"/buckets/default/docs/"+key+"?replicate_to=1",
			bytes.NewReader([]byte(`{"traced":true}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			return "", false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", false
		}
		return resp.Header.Get("X-Trace-Id"), true
	}

	// Formation: a durable REST write through the seed only succeeds
	// once the map is minted and replica streams flow.
	waitFor(t, 30*time.Second, "cluster formation (first durable REST write)", func() bool {
		_, ok := put("probe")
		return ok
	})

	// The key's vBucket placement decides which processes the write
	// crosses; roughly a third of keys route client → active →
	// replica across three distinct processes. Hunt for one, fetching
	// each stitched trace from a node that did NOT serve the REST
	// write.
	var lastNodes []string
	found := false
	for i := 0; i < 200 && !found; i++ {
		id, ok := put(fmt.Sprintf("traced-%d", i))
		if !ok || id == "" {
			continue
		}
		resp, err := client.Get(p2.http + "/traces/" + id)
		if err != nil {
			continue
		}
		var out struct {
			Nodes []string   `json:"nodes"`
			Spans *traceNode `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		lastNodes = out.Nodes

		spanNodes := map[string]bool{}
		names := map[string]bool{}
		walkTrace(out.Spans, func(n *traceNode) {
			if n.Node != "" {
				spanNodes[n.Node] = true
			}
			names[n.Name] = true
		})
		if len(spanNodes) < 3 {
			continue
		}
		for n := range spanNodes {
			if !all[n] {
				t.Fatalf("stitched tree names unknown node %q (members %v)", n, all)
			}
		}
		if out.Spans == nil || out.Spans.Name != "rest:put" {
			t.Fatalf("stitched root is %+v, want the client's rest:put", out.Spans)
		}
		if !names["replica:apply"] {
			t.Fatalf("three-process trace missing replica:apply: %v", names)
		}
		found = true
	}
	if !found {
		t.Fatalf("no write produced a three-process stitched trace (last contributing nodes: %v)", lastNodes)
	}

	// Federation sanity on the same cluster: /cluster/metrics from any
	// node carries every live member's NodeSnapshot, labeled by it.
	resp, err := client.Get(p1.http + "/cluster/metrics")
	if err != nil {
		t.Fatalf("/cluster/metrics: %v", err)
	}
	defer resp.Body.Close()
	var cm rest.ClusterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&cm); err != nil {
		t.Fatalf("/cluster/metrics decode: %v", err)
	}
	if len(cm.Errors) > 0 {
		t.Fatalf("/cluster/metrics errors: %v", cm.Errors)
	}
	for addr := range all {
		if n, ok := cm.Nodes[addr]; !ok || n.Node != addr || len(n.Buckets) == 0 {
			t.Fatalf("/cluster/metrics member %s missing or not its own snapshot (have %d nodes): %+v", addr, len(cm.Nodes), n.Node)
		}
	}
}
