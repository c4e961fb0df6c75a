package trace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"couchgo/internal/metrics"
)

func TestDisabledIsNilEverywhere(t *testing.T) {
	tr := New()
	ctx, sp := tr.Start(context.Background(), "kv:get")
	if sp != nil {
		t.Fatalf("rate 0 sampled a span")
	}
	if FromContext(ctx) != nil {
		t.Fatalf("disabled ctx carries a span")
	}
	// Every nil-receiver method must be a no-op, not a panic.
	sp.Annotate("k", "v")
	sp.Error(errors.New("x"))
	NewStage("test:nil").Record(sp, time.Now(), time.Now(), nil, nil)
	sp.Child("c").End()
	sp.End()
	if sp.Trace().StartSpan("late") != nil {
		t.Fatalf("nil trace produced a span")
	}
	if got := len(tr.Traces()); got != 0 {
		t.Fatalf("retained %d traces, want 0", got)
	}
}

func TestSamplingRate(t *testing.T) {
	tr := New()
	tr.SetRate(4)
	sampled := 0
	for i := 0; i < 40; i++ {
		_, sp := tr.Start(context.Background(), "op")
		if sp != nil {
			sampled++
			sp.End()
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 at rate 4, want 10", sampled)
	}
}

func TestSpanTreeAndRetention(t *testing.T) {
	tr := New()
	tr.SetRate(1)
	ctx, root := tr.Start(context.Background(), "kv:set")
	if root == nil {
		t.Fatal("rate 1 did not sample")
	}
	root.Annotate("key", "k1")
	cctx, child := tr.Start(ctx, "route")
	child.Annotate("node", "node0")
	_, leaf := tr.Start(cctx, "cache:set")
	leaf.Error(errors.New("boom"))
	leaf.End()
	child.End()
	root.End()

	tc := root.Trace()
	if got := tr.Get(tc.ID); got != tc {
		t.Fatalf("Get(%d) = %v, want the trace", tc.ID, got)
	}
	tree := tc.Tree()
	if tree.Name != "kv:set" || len(tree.Children) != 1 {
		t.Fatalf("bad root: %+v", tree)
	}
	if tree.Children[0].Name != "route" || tree.Children[0].Children[0].Name != "cache:set" {
		t.Fatalf("bad nesting: %+v", tree.Children[0])
	}
	if tree.Children[0].Children[0].Error != "boom" {
		t.Fatalf("error tag lost")
	}
	sums := tr.Traces()
	if len(sums) != 1 || sums[0].Spans != 3 {
		t.Fatalf("summaries = %+v", sums)
	}
}

// spanNames lists the trace's span names in creation order.
func spanNames(t *Trace) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.spans))
	for i, s := range t.spans {
		out[i] = s.name
	}
	return out
}

func TestAsyncSpanAfterRootEnd(t *testing.T) {
	tr := New()
	tr.SetRate(1)
	_, root := tr.Start(context.Background(), "kv:set")
	tc := root.Trace()
	root.End()

	// The flusher/feed hop arrives after the client call finished.
	sp := tc.StartSpan("storage:commit")
	sp.Annotate("items", "3")
	sp.End()

	got := tr.Get(tc.ID)
	names := spanNames(got)
	want := []string{"kv:set", "storage:commit"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	if got.Tree().Children[0].Open {
		t.Fatalf("async span still open after End")
	}
}

func TestSlowRingAlwaysKeeps(t *testing.T) {
	tr := New()
	tr.SetRate(1)
	tr.SetThreshold("op", 5*time.Millisecond)

	var slowID uint64
	for i := 0; i < recentSize+8; i++ {
		_, sp := tr.Start(context.Background(), "op")
		if i == 0 {
			slowID = sp.Trace().ID
			time.Sleep(10 * time.Millisecond)
		}
		sp.End()
	}
	// The slow first trace fell off the recent ring (recentSize fast
	// traces followed it) but the always-keep ring still resolves it.
	if got := tr.Get(slowID); got == nil {
		t.Fatalf("slow trace %d evicted; want always-keep", slowID)
	}
	slow := 0
	for _, sum := range tr.Traces() {
		if sum.Slow {
			slow++
		}
	}
	if slow != 1 {
		t.Fatalf("%d slow traces, want 1", slow)
	}

	// With a high threshold nothing is slow.
	tr2 := New()
	tr2.SetRate(1)
	tr2.SetThreshold("op", time.Hour)
	_, sp := tr2.Start(context.Background(), "op")
	sp.End()
	if tr2.Traces()[0].Slow {
		t.Fatalf("fast trace marked slow")
	}
}

func TestSlowestAndClear(t *testing.T) {
	tr := New()
	tr.SetRate(1)
	_, fast := tr.Start(context.Background(), "op")
	fast.End()
	_, slow := tr.Start(context.Background(), "op")
	time.Sleep(2 * time.Millisecond)
	slow.End()
	if got := tr.Traces(); len(got) != 2 || got[0].ID != slow.Trace().ID || got[0].DurationUS < got[1].DurationUS {
		t.Fatalf("Traces = %+v, want the slow trace %d first", got, slow.Trace().ID)
	}
	tr.Clear()
	if len(tr.Traces()) != 0 || tr.Get(slow.Trace().ID) != nil {
		t.Fatalf("Clear left traces behind")
	}
}

func TestSpanCapDrops(t *testing.T) {
	tr := New()
	tr.SetRate(1)
	_, root := tr.Start(context.Background(), "op")
	for i := 0; i < maxSpans+10; i++ {
		root.Child("c").End()
	}
	root.End()
	tc := root.Trace()
	tree := tc.Tree()
	if len(tree.Children) != maxSpans-1 {
		t.Fatalf("kept %d children, want %d", len(tree.Children), maxSpans-1)
	}
	found := false
	for _, a := range tree.Annotations {
		if a.Key == "spans_dropped" {
			found = true
		}
	}
	if !found {
		t.Fatalf("drop count not surfaced")
	}
}

func TestCompletedRecordsPhase(t *testing.T) {
	tr := New()
	tr.SetRate(1)
	_, root := tr.Start(context.Background(), "query")
	t0 := time.Now().Add(-3 * time.Millisecond)
	NewStage("query:scan").Record(root, t0, t0.Add(3*time.Millisecond), nil, func(sp *Span) { sp.Annotate("items", "42") })
	root.End()
	tree := root.Trace().Tree()
	c := tree.Children[0]
	if c.Name != "query:scan" || c.DurationUS < 2000 {
		t.Fatalf("completed span wrong: %+v", c)
	}
	if len(c.Annotations) != 1 || c.Annotations[0].Value != "42" {
		t.Fatalf("annotations wrong: %+v", c.Annotations)
	}
}

// TestStage: every call is one sample of couchgo_stage_seconds{stage};
// only a traced one adds a span, a batch adds one per distinct trace,
// and an error marks the span.
func TestStage(t *testing.T) {
	st := NewStage("test:stage")
	count := func() uint64 {
		return metrics.Default.Histogram("couchgo_stage_seconds", "stage", "test:stage").Snapshot().Count
	}
	before := count()
	annotated := 0
	st.Record(nil, time.Now(), time.Now(), nil, func(*Span) { annotated++ })
	if got := count() - before; got != 1 || annotated != 0 {
		t.Fatalf("untraced Record: %d samples, %d annotations; want 1 and 0", got, annotated)
	}

	tr := New()
	tr.SetRate(1)
	_, a := tr.Start(context.Background(), "a")
	_, b := tr.Start(context.Background(), "b")
	ops := []*Trace{a.Trace(), nil, b.Trace(), a.Trace()}
	boom := errors.New("boom")
	st.Batch(len(ops), func(i int) *Trace { return ops[i] }, time.Now(), time.Now(), boom, func(sp *Span) { annotated++ })
	if got := count() - before; got != 2 || annotated != 2 {
		t.Fatalf("after a batch: %d samples, %d annotations; want 2 and 2", got, annotated)
	}
	for _, root := range []*Span{a, b} {
		root.End()
		tree := root.Trace().Tree()
		if len(tree.Children) != 1 || tree.Children[0].Name != "test:stage" || tree.Children[0].Open {
			t.Fatalf("%s: children %+v, want one finished test:stage span", tree.Name, tree.Children)
		}
		if tree.Children[0].Error != "boom" {
			t.Fatalf("%s: stage span error %q, want boom", tree.Name, tree.Children[0].Error)
		}
	}
}

func TestForceBypassesTick(t *testing.T) {
	tr := New()
	tr.SetRate(1000) // ordinary ops essentially never sample
	_, sp := tr.Force(context.Background(), "storage:compact")
	if sp == nil {
		t.Fatalf("Force did not trace while tracing enabled")
	}
	sp.End()
	tr.SetRate(0)
	_, sp = tr.Force(context.Background(), "storage:compact")
	if sp != nil {
		t.Fatalf("Force traced while tracing disabled")
	}
}

// TestConcurrentSpansAndRender hammers one trace from many
// goroutines while rendering it — the async-hop pattern under -race.
func TestConcurrentSpansAndRender(t *testing.T) {
	tr := New()
	tr.SetRate(1)
	_, root := tr.Start(context.Background(), "kv:set")
	tc := root.Trace()
	root.End()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tc.StartSpan("feed:apply")
				sp.Annotate("seqno", "1")
				sp.End()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tc.Tree()
				tr.Traces()
				tr.Get(tc.ID)
			}
		}()
	}
	wg.Wait()
}
