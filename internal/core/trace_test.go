package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"couchgo/internal/executor"
	"couchgo/internal/metrics"
	"couchgo/internal/trace"
)

// spanNames lists the names in t's span tree, depth first.
func spanNames(t *trace.Trace) []string {
	var out []string
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		if n == nil {
			return
		}
		out = append(out, n.Name)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Tree())
	return out
}

// withTracing enables 1-in-1 sampling on the process tracer for one
// test and restores the disabled state (with retention cleared) after.
func withTracing(t *testing.T) {
	t.Helper()
	trace.Default.SetRate(1)
	t.Cleanup(func() {
		trace.Default.SetRate(0)
		trace.Default.Clear()
	})
}

// queryTrace is the newest retained trace rooted at a query.
func queryTrace() *trace.Trace {
	for _, sum := range trace.Default.Traces() {
		if sum.Op == "query" {
			return trace.Default.Get(sum.ID)
		}
	}
	return nil
}

// traceNames polls until the trace's span set satisfies pred — async
// hops (flusher commit, feed apply) land after the client call returns.
func traceNames(t *testing.T, tc *trace.Trace, pred func([]string) bool) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var names []string
	for time.Now().Before(deadline) {
		names = spanNames(tc)
		if pred(names) {
			return names
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("trace never satisfied predicate; spans = %v", names)
	return nil
}

// stageCounts is couchgo_stage_seconds's sample count by stage.
func stageCounts() map[string]uint64 {
	out := map[string]uint64{}
	for labels, v := range metrics.Default.Snapshot()["couchgo_stage_seconds"] {
		out[strings.TrimSuffix(strings.TrimPrefix(labels, `{stage="`), `"}`)] = v.Hist.Count
	}
	return out
}

// checkStagesRose: every name in stages is a stage (has a
// couchgo_stage_seconds series), and each stage among a trace's span
// names took a sample since before — a span is never timed alone.
func checkStagesRose(t *testing.T, before map[string]uint64, names, stages []string) {
	t.Helper()
	after := stageCounts()
	for _, name := range stages {
		if _, ok := after[name]; !ok {
			t.Errorf("%s has no couchgo_stage_seconds series", name)
		}
	}
	for _, name := range names {
		if n, ok := after[name]; ok && n <= before[name] {
			t.Errorf("the trace has a %s span, but couchgo_stage_seconds{stage=%q} stayed at %d samples", name, name, n)
		}
	}
}

// TestWriteTraceSpansAllLayers is the acceptance path of the tracing
// work: one sampled client write must produce a single trace whose
// spans cross every layer — client routing, cache, storage commit,
// the DCP replica hop, and the index-service feed apply.
func TestWriteTraceSpansAllLayers(t *testing.T) {
	c, cl := newTestCluster(t, 2, 1)
	if _, err := c.Query("CREATE INDEX byN ON `default`(n)", executor.Options{}); err != nil {
		t.Fatal(err)
	}
	withTracing(t)
	before := stageCounts()

	ctx, sp := trace.Default.Start(context.Background(), "test:write")
	if sp == nil {
		t.Fatal("rate 1 did not sample")
	}
	if _, err := cl.SetWithOptions(ctx, "traced", []byte(`{"n": 7}`), 0, 0, 0,
		DurabilityOptions{ReplicateTo: 1, PersistTo: true}); err != nil {
		t.Fatal(err)
	}
	sp.End()

	tc := sp.Trace()
	names := traceNames(t, tc, func(ns []string) bool {
		return slices.Contains(ns, "storage:commit") && slices.Contains(ns, "feed:apply")
	})
	for _, want := range []string{
		"kv:set", "route", "cache:set", "durability:wait",
		"replica:apply", "storage:commit", "feed:apply",
	} {
		if !slices.Contains(names, want) {
			t.Errorf("trace %d missing span %q; have %v", tc.ID, want, names)
		}
	}
	checkStagesRose(t, before, names, []string{"durability:wait", "storage:commit", "feed:apply"})
	// The whole journey shares one trace ID: the retained trace found
	// by ID is the same object the client write populated.
	if got := trace.Default.Get(tc.ID); got != tc {
		t.Fatalf("Get(%d) did not resolve the write's trace", tc.ID)
	}
}

// TestQueryTraceUnifiesProfileAndSpans checks that a traced N1QL
// statement records its per-operator phases as spans on the same
// trace that profiling reports, with the chosen access path annotated.
func TestQueryTraceUnifiesProfileAndSpans(t *testing.T) {
	c, cl := newTestCluster(t, 2, 1)
	if _, err := c.Query("CREATE INDEX byN ON `default`(n)", executor.Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := cl.Set(context.Background(), fmt.Sprintf("q%02d", i), []byte(fmt.Sprintf(`{"n": %d}`, i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	withTracing(t)

	// SELECT * defeats the covering-scan optimization, so the plan
	// includes a document fetch and the scan annotation is the plain
	// index scan. The second execution takes its plan from the cache
	// and must show the same phases and spans as the first.
	for _, planCache := range []string{"miss", "hit"} {
		trace.Default.Clear()
		before := stageCounts()
		prof := executor.NewProfile()
		res, err := c.Query("SELECT * FROM `default` WHERE n >= 3",
			executor.Options{Consistency: executor.RequestPlus, Prof: prof})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 7 {
			t.Fatalf("rows = %d, want 7", len(res.Rows))
		}

		tc := queryTrace()
		if tc == nil {
			t.Fatal("no query trace retained")
		}
		names := spanNames(tc)
		for _, want := range []string{"query", "query:parse", "query:plan", "query:scan", "query:fetch", "query:project"} {
			if !slices.Contains(names, want) {
				t.Errorf("plan cache %s: query trace missing span %q; have %v", planCache, want, names)
			}
		}
		checkStagesRose(t, before, names, []string{"query:parse", "query:plan", "query:scan", "query:fetch", "query:project"})
		// Every profiled phase must appear as a query:<op> span — the two
		// views of execution cannot drift.
		for _, ph := range prof.Timings() {
			if !slices.Contains(names, "query:"+ph.Operator) {
				t.Errorf("profiled phase %q absent from trace spans %v", ph.Operator, names)
			}
		}
		annotated := map[string]string{}
		for _, a := range tc.Tree().Annotations {
			annotated[a.Key] = a.Value
		}
		if annotated["scan"] != "IndexScan(byN)" {
			t.Errorf("scan annotation = %q, want IndexScan(byN)", annotated["scan"])
		}
		if annotated["plan_cache"] != planCache {
			t.Errorf("plan_cache annotation = %q, want %s", annotated["plan_cache"], planCache)
		}
	}
}

// TestProfileListsEachOperatorOnce: a pipeline operator runs once per
// batch, interleaved with its neighbours, yet `profile: timings` and
// the request trace each list it once, in pipeline order, under the
// names of its query:<op> stages.
func TestProfileListsEachOperatorOnce(t *testing.T) {
	c, cl := newTestCluster(t, 2, 0)
	if _, err := c.Query("CREATE INDEX byN ON `default`(n)", executor.Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		doc := fmt.Sprintf(`{"n": %d, "peer": "q%02d", "tags": [1, 2]}`, i, (i+1)%40)
		if _, err := cl.Set(context.Background(), fmt.Sprintf("q%02d", i), []byte(doc), 0); err != nil {
			t.Fatal(err)
		}
	}
	withTracing(t)
	pipeline := []string{"parse", "plan", "scan", "fetch", "join", "unnest", "filter", "group", "project", "sort"}
	for _, tc := range []struct {
		stmt string
		rows int
		want []string // nil: any subsequence of pipeline
	}{
		{ // every operator, two join terms
			stmt: "SELECT d.n, COUNT(*) AS c FROM `default` d JOIN `default` p ON KEYS d.peer JOIN `default` p2 ON KEYS p.peer " +
				"UNNEST d.tags AS t WHERE d.n >= 0 AND t = 1 GROUP BY d.n ORDER BY c, d.n LIMIT 3",
			rows: 3, want: pipeline,
		},
		{ // a filter that rejects three rows in four: the scan and fetch run several batches
			stmt: "SELECT * FROM `default` WHERE n >= 0 AND n % 4 = 3 LIMIT 6",
			rows: 6, want: []string{"parse", "plan", "scan", "fetch", "filter", "project"},
		},
		{stmt: "SELECT n FROM `default` WHERE n >= 5 LIMIT 0", rows: 0},
	} {
		trace.Default.Clear()
		res, err := c.Query(tc.stmt, executor.Options{Consistency: executor.RequestPlus, Prof: executor.NewProfile()})
		if err != nil || len(res.Rows) != tc.rows {
			t.Fatalf("%s: %d rows, %v", tc.stmt, len(res.Rows), err)
		}
		var got []string
		for _, ph := range res.Profile {
			got = append(got, ph.Operator)
		}
		if tc.want != nil && !slices.Equal(got, tc.want) {
			t.Errorf("%s:\nprofile %v\n   want %v", tc.stmt, got, tc.want)
		}
		next := 0
		for _, op := range got {
			i := slices.Index(pipeline[next:], op)
			if i < 0 {
				t.Errorf("%s: operator %q unknown, repeated or out of pipeline order in %v", tc.stmt, op, got)
				break
			}
			next += i + 1
		}
		var spans []string
		for _, name := range spanNames(queryTrace()) {
			if op, ok := strings.CutPrefix(name, "query:"); ok {
				spans = append(spans, op)
			}
		}
		if !slices.Equal(spans, got) {
			t.Errorf("%s:\ntrace spans %v\n    profile %v", tc.stmt, spans, got)
		}
	}
}

// TestTracePropagatesThroughRollback drives the failover/rollback
// protocol with tracing on and asserts the consumer's rollback span
// lands on the trace of an originating client mutation: the write
// whose index application is being un-applied points at the rollback
// that un-applied it.
func TestTracePropagatesThroughRollback(t *testing.T) {
	c, cl := newTestCluster(t, 2, 1)
	if _, err := c.Query("CREATE INDEX byN ON `default`(n)", executor.Options{}); err != nil {
		t.Fatal(err)
	}
	count := func(stage string) int {
		t.Helper()
		res, err := c.Query("SELECT COUNT(*) AS c FROM `default` WHERE n >= 0",
			executor.Options{Consistency: executor.RequestPlus})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		return int(res.Rows[0].(map[string]any)["c"].(float64))
	}

	const base = 10
	for i := 0; i < base; i++ {
		if _, err := cl.SetWithOptions(context.Background(), fmt.Sprintf("d%03d", i), []byte(fmt.Sprintf(`{"n": %d}`, i)),
			0, 0, 0, DurabilityOptions{ReplicateTo: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := count("baseline"); got != base {
		t.Fatalf("baseline count = %d, want %d", got, base)
	}

	withTracing(t)

	// Divergent, traced writes: these exist only on the actives and in
	// the index. At least one must die with node0 for the failover to
	// force a rollback.
	if err := c.SeverReplication("default"); err != nil {
		t.Fatal(err)
	}
	b, _ := c.bucket("default")
	oldMap := b.Map()
	sawNode0 := false
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("x%03d", i)
		if _, err := cl.Set(context.Background(), k, []byte(`{"n": 100}`), 0); err != nil {
			t.Fatal(err)
		}
		if nodeID, _ := oldMap.NodeForKey(k); nodeID == "node0" {
			sawNode0 = true
		}
	}
	if !sawNode0 {
		t.Fatal("test premise: no divergent write landed on node0")
	}
	count("pre-failover") // let the index consume the divergent writes

	if err := c.Kill("node0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Failover("node0"); err != nil {
		t.Fatal(err)
	}
	count("post-failover") // forces feed reattach + rollback to complete

	// The rollback span attaches to the trace of the last mutation the
	// consumer applied — a kv:set trace from the divergent burst.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var found *trace.Trace
		for _, sum := range trace.Default.Traces() {
			tc := trace.Default.Get(sum.ID)
			if tc == nil {
				continue
			}
			names := spanNames(tc)
			if slices.Contains(names, "feed:rollback") {
				found = tc
				if !slices.Contains(names, "kv:set") {
					t.Fatalf("rollback span on a non-write trace: %v", names)
				}
				break
			}
		}
		if found != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no retained trace gained a feed:rollback span after failover")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
