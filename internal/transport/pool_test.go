package transport

import (
	"errors"
	"testing"
	"time"

	"couchgo/internal/core"
)

// TestReconnectBackoffBounds checks the fail-fast window math: always
// positive, never above the cap plus its 50% jitter headroom, and
// growing (in expectation) until the cap takes over.
func TestReconnectBackoffBounds(t *testing.T) {
	const maxWithJitter = reconnectMaxBackoff + reconnectMaxBackoff/2
	for failures := 1; failures <= 20; failures++ {
		for i := 0; i < 200; i++ {
			d := reconnectBackoff(failures)
			if d <= 0 {
				t.Fatalf("failures=%d: non-positive backoff %v", failures, d)
			}
			if d > maxWithJitter {
				t.Fatalf("failures=%d: backoff %v exceeds cap %v (+50%% jitter)", failures, d, maxWithJitter)
			}
		}
	}
	// The pre-cap exponential must stay under its nominal bound too:
	// 2^min(n,10) ms, +50% jitter.
	for i := 0; i < 200; i++ {
		if d := reconnectBackoff(3); d > 12*time.Millisecond {
			t.Fatalf("failures=3: backoff %v exceeds 8ms +50%% jitter", d)
		}
	}
}

// TestPoolGetFailFast asserts Get never sleeps a backoff out: a Get
// inside the reconnect window returns ErrNodeUnreachable immediately
// instead of parking the caller until the window expires.
func TestPoolGetFailFast(t *testing.T) {
	p := NewPool()
	defer p.Close()
	// A port from the dynamic range with no listener: connect is
	// refused immediately, so the first Get fails fast and opens the
	// backoff window.
	addr := "127.0.0.1:59999"
	if _, err := p.Get(addr); err == nil {
		t.Skip("unexpected listener on test port")
	}
	start := time.Now()
	_, err := p.Get(addr)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("second Get inside backoff window succeeded")
	}
	if !errors.Is(err, core.ErrNodeUnreachable) {
		t.Fatalf("want ErrNodeUnreachable, got %v", err)
	}
	// Generous bound: immediate return, not a slept-out backoff (the
	// window after one failure is ~2ms nominal but the assertion is
	// about sleeping at all, not the exact window).
	if elapsed > 100*time.Millisecond {
		t.Fatalf("Get slept %v inside backoff window; want immediate error", elapsed)
	}
}

// TestCloseUnblocksPush asserts the push retry loop's inter-attempt
// sleep is cancellable: closing the node fires its closed channel, and
// a push parked between attempts at an unreachable member returns
// instead of running the interval out.
func TestCloseUnblocksPush(t *testing.T) {
	c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: 2, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.CreateBucket("b", core.BucketOptions{}); err != nil {
		t.Fatal(err)
	}
	n, err := StartNode(NodeOptions{Cluster: c, Bucket: "b", KVAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.pushMap("127.0.0.1:1", "b", nil)
	}()
	time.Sleep(50 * time.Millisecond) // let the first attempt fail and the loop park
	n.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("pushMap did not observe Close")
	}
	// Close is idempotent.
	n.Close()
}
