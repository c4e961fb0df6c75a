package trace

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
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
	sp.Completed("c", time.Now(), 0)
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
	names := got.Names()
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
	if n := tr.SlowTotal("op"); n != 1 {
		t.Fatalf("slowTotal = %d, want 1", n)
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
	if got := tr.Slowest("op"); got != slow.Trace() {
		t.Fatalf("Slowest = trace %v, want %d", got, slow.Trace().ID)
	}
	if got := tr.Slowest(""); got != slow.Trace() {
		t.Fatalf("Slowest(\"\") missed")
	}
	tr.Clear()
	if len(tr.Traces()) != 0 || tr.Slowest("") != nil {
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
	root.Completed("query:scan", t0, 3*time.Millisecond, "items", "42")
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

func TestFormatText(t *testing.T) {
	tr := New()
	tr.SetRate(1)
	ctx, root := tr.Start(context.Background(), "kv:get")
	_, c := tr.Start(ctx, "route")
	c.Annotate("vb", "7")
	c.End()
	root.End()
	out := Format(root.Trace())
	for _, want := range []string{"op=kv:get", "route", "vb=7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	if Format(nil) != "<no trace>" {
		t.Fatalf("nil Format")
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
				Format(tc)
			}
		}()
	}
	wg.Wait()
}
