package vbucket

import (
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"couchgo/internal/events"
	"couchgo/internal/storage"
)

// TestSetPublishAllocBudget bounds the full hot write path: cache
// install, disk-queue enqueue, and DCP publish with a live stream
// draining. AllocsPerRun counts process-wide mallocs, so the budget
// includes the flusher and stream consumer riding along — it is a
// tripwire against per-op garbage creeping into any layer of the
// path, not an exact count. A count alone hid several KiB of garbage
// per Set (a flusher batch encoded into a buffer grown from nil is one
// allocation however large), so the bytes are budgeted too.
func TestSetPublishAllocBudget(t *testing.T) {
	vb, _ := newVB(t, Active, Config{})

	s, err := vb.Producer().ResumeStream("gate", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for _, ok := s.Next(); ok; _, ok = s.Next() {
		}
	}()

	value := make([]byte, 1024)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "user" + strconv.Itoa(1000000+i)
	}
	i := 0
	set := func() {
		if _, err := vb.Set(bg, keys[i%len(keys)], value, 0, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		i++
	}
	n := testing.AllocsPerRun(500, set)
	// Measured ~8 (item box + flush entry + DCP mutation + batch
	// bookkeeping across goroutines); 16 leaves headroom for scheduling
	// variance while still catching a path that starts copying values
	// or building strings per op.
	const budget = 16
	if n > budget {
		t.Errorf("Set→enqueue→publish allocates %.1f times per op, budget %d", n, budget)
	}

	// Bytes, over the Sets and their whole afterlife on this copy. The
	// flusher is let catch up every few Sets, as one that keeps up with
	// its clients does, so batches are small and in-batch dedup absorbs
	// nothing: the queues, the stream's batches and the file's encode
	// buffer are warm, and none may cost a value's worth of garbage per Set.
	const sets = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := range sets {
		set()
		if n%4 == 3 {
			if err := vb.DrainDisk(5 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	perSet := float64(after.TotalAlloc-before.TotalAlloc) / sets
	if byteBudget := float64(2 * len(value)); perSet > byteBudget {
		t.Errorf("Set→enqueue→publish→persist allocates %.0f bytes per %d-byte Set, budget %.0f", perSet, len(value), byteBudget)
	} else {
		t.Logf("%.0f bytes allocated per %d-byte Set (budget %.0f)", perSet, len(value), byteBudget)
	}

	// A burst: a second stream is held for burst Sets, then drained, and
	// the flusher caught up, rounds times over. The backlog is entries of
	// the one log, not a copy per reader regrown after every drain, so the
	// bytes per Set do not grow with it.
	held, err := vb.Producer().ResumeStream("burst", 0, vb.HighSeqno())
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	const burst, rounds, burstBudget = 4096, 8, 448
	runtime.ReadMemStats(&before)
	for range rounds {
		for range burst {
			set()
		}
		for high, got := vb.HighSeqno(), uint64(0); got < high; {
			batch, ok := held.Next()
			if !ok {
				t.Fatal("held stream ended")
			}
			got = batch[len(batch)-1].Seqno
		}
		if err := vb.DrainDisk(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perSet := float64(after.TotalAlloc-before.TotalAlloc) / (burst * rounds); perSet > burstBudget {
		t.Errorf("%d-Set bursts allocate %.0f bytes per Set, budget %d", burst, perSet, burstBudget)
	} else {
		t.Logf("%d-Set bursts: %.0f bytes allocated per Set (budget %d)", burst, perSet, burstBudget)
	}
}

// TestSlowCommitJournaled is the regression test for the max-latency
// outliers: when a disk commit stalls, the front-end write path must
// stay fast (memory-first acknowledgement), and the stall itself must
// surface as a SlowOp journal event naming the blocking site — not
// just as an anonymous latency spike.
func TestSlowCommitJournaled(t *testing.T) {
	old := slowOpThreshold
	slowOpThreshold = time.Millisecond
	defer func() { slowOpThreshold = old }()

	vb, _ := newVB(t, Active, Config{DiskDelay: 20 * time.Millisecond})

	start := time.Now()
	it, err := vb.Set(bg, "k", []byte("v"), 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Errorf("front-end Set took %v; must not wait on the slow disk", d)
	}

	if err := vb.WaitPersist(bg, it.Seqno, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		var found *events.Event
		for _, ev := range events.Default.Events(events.Filter{Type: events.SlowOp}) {
			if ev.Fields["site"] == "storage.Append" && ev.Fields["vb"] == "0" {
				found = &ev
				break
			}
		}
		if found != nil {
			if !strings.Contains(found.Msg, "slow disk commit") {
				t.Errorf("unexpected slow-op message %q", found.Msg)
			}
			if found.Fields["duration"] == "" || found.Fields["batch_items"] == "" {
				t.Errorf("slow-op event missing fields: %+v", found.Fields)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no SlowOp event journaled for the stalled commit")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func BenchmarkSetPublish(b *testing.B) {
	f, err := storage.Open(filepath.Join(b.TempDir(), "vb.couch"), false)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	vb := New(0, f, Active, Config{})
	defer vb.Close()
	value := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vb.Set(bg, "user4316891766", value, 0, 0, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
