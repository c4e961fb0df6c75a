package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/dcp"
)

// recordingSource is the loopback ReplicaSource with a tap on it: it
// records every resume position and every ack, can refuse to resolve
// sources (the active's node is unreachable), and keeps the last
// stream it served so a test can cut it from the producer side.
type recordingSource struct {
	inner ReplicaSource

	mu      sync.Mutex
	down    bool
	refused int
	opens   []uint64
	acks    []uint64
	last    dcp.MutationStream
}

type recordedProducer struct {
	dcp.StreamSource
	r *recordingSource
}

func (r *recordingSource) Source(node cmap.NodeID, vb int) (dcp.StreamSource, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down {
		r.refused++
		return nil, errors.New("source unreachable")
	}
	src, err := r.inner.Source(node, vb)
	return recordedProducer{src, r}, err
}

func (p recordedProducer) ResumeStream(name string, uuid, from uint64) (dcp.MutationStream, error) {
	ms, err := p.StreamSource.ResumeStream(name, uuid, from)
	p.r.mu.Lock()
	p.r.opens = append(p.r.opens, from)
	p.r.last = ms
	p.r.mu.Unlock()
	return ms, err
}

func (r *recordingSource) Ack(src dcp.StreamSource, stream dcp.MutationStream, replica string, seqno uint64) {
	r.mu.Lock()
	r.acks = append(r.acks, seqno)
	r.mu.Unlock()
	r.inner.Ack(src.(recordedProducer).StreamSource, stream, replica, seqno)
}

// cut makes the source unreachable and severs the stream it last
// served, as a crashed active does.
func (r *recordingSource) cut() {
	r.mu.Lock()
	r.down = true
	last := r.last
	r.mu.Unlock()
	last.Close()
}

func (r *recordingSource) restore() {
	r.mu.Lock()
	r.down = false
	r.mu.Unlock()
}

func (r *recordingSource) snapshot() (opens, acks []uint64, refused int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.opens), slices.Clone(r.acks), r.refused
}

func linkGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*nodeBucket).runLink")
}

func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// haltedWithin halts the link and requires its goroutine gone within d.
func haltedWithin(t *testing.T, l *replicaLink, d time.Duration, when string) {
	t.Helper()
	start := time.Now()
	l.halt()
	select {
	case <-l.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("halt %s: link goroutine still running after 10s", when)
	}
	if took := time.Since(start); took > d {
		t.Errorf("halt %s took %v, want under %v", when, took, d)
	}
}

// TestReplicaLinkLifecycle drives one link through a source outage and
// every way of stopping it.
func TestReplicaLinkLifecycle(t *testing.T) {
	c, cl := newTestCluster(t, 2, 1)
	b, _ := c.bucket("default")
	m := b.Map()
	const vbID = 0
	active, replica := m.Active(vbID), m.Replicas(vbID)[0]
	actVB, err := c.NodeVB(active, "default", vbID)
	if err != nil {
		t.Fatal(err)
	}
	repVB, err := c.NodeVB(replica, "default", vbID)
	if err != nil {
		t.Fatal(err)
	}
	rn, _ := c.Node(replica)
	nb, err := rn.bucket("default")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; len(keys) < 300; i++ {
		if k := fmt.Sprintf("k%d", i); cmap.VBucketID(k, m.NumVBuckets) == vbID {
			keys = append(keys, k)
		}
	}
	ctx := context.Background()
	write := func(keys []string, replicateTo int) {
		t.Helper()
		for _, k := range keys {
			if _, err := cl.SetWithOptions(ctx, k, []byte(`{}`), 0, 0, 0,
				DurabilityOptions{ReplicateTo: replicateTo, Timeout: 10 * time.Second}); err != nil {
				t.Fatalf("Set %s: %v", k, err)
			}
		}
	}
	link := func() *replicaLink {
		nb.mu.Lock()
		defer nb.mu.Unlock()
		return nb.links[vbID]
	}

	// Re-point the copy through the tap.
	rec := &recordingSource{inner: loopbackSource{c, "default"}}
	nb.stopLink(vbID)
	nb.pointLink(repVB, active, replica, rec)
	write(keys[:100], 1)
	if got, want := repVB.HighSeqno(), actVB.HighSeqno(); got != want {
		t.Fatalf("replica at seqno %d after acknowledged writes, active at %d", got, want)
	}

	// Source outage mid-stream: the link backs off, then resumes exactly
	// where the copy stands, and the ack watermark never moves backwards.
	rec.cut()
	resumeAt := repVB.HighSeqno()
	write(keys[100:200], 0)
	waitUntil(t, "link backing off", func() bool { _, _, refused := rec.snapshot(); return refused >= 2 })
	if l := link(); l == nil || !l.alive() {
		t.Fatal("link gave up during the outage")
	}
	rec.restore()
	waitUntil(t, "replica catching up", func() bool { return repVB.HighSeqno() == actVB.HighSeqno() })
	write(keys[200:], 1)
	opens, acks, _ := rec.snapshot()
	if len(opens) != 2 || opens[1] != resumeAt {
		t.Errorf("resume positions %v, want a second open at the copy's high seqno %d", opens, resumeAt)
	}
	if !slices.IsSorted(acks) || acks[len(acks)-1] != actVB.HighSeqno() {
		t.Errorf("acks regressed or stopped short of %d: %v", actVB.HighSeqno(), acks)
	}
	if got, want := repVB.Table.Stats().Items, actVB.Table.Stats().Items; got != want {
		t.Errorf("replica holds %d items, active %d", got, want)
	}

	// Halt while parked on an idle stream.
	haltedWithin(t, link(), time.Second, "on an idle stream")

	// Halt during backoff: by the fourth refusal the link sleeps 400ms.
	rec.cut()
	nb.pointLink(repVB, active, replica, rec)
	_, _, base := rec.snapshot()
	waitUntil(t, "fourth refused attempt", func() bool { _, _, refused := rec.snapshot(); return refused >= base+4 })
	haltedWithin(t, link(), 200*time.Millisecond, "during backoff")
	rec.restore()

	// Closing the bucket leaves no link goroutine behind, halted or live.
	nb.pointLink(repVB, active, replica, rec)
	if linkGoroutines() == 0 {
		t.Fatal("no link goroutines before Close; the count below would prove nothing")
	}
	c.Close()
	if n := linkGoroutines(); n != 0 {
		t.Errorf("%d link goroutines survive Cluster.Close", n)
	}
}
