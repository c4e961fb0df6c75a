package feed

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"couchgo/internal/dcp"
	"couchgo/internal/metrics"
)

// waitFixture is a feed that has applied seqnos 1..n of vBucket 0.
type waitFixture struct {
	src *memSource
	p   *dcp.Producer
	f   *Feed
}

func (x *waitFixture) publish(from, to int) {
	for i := from; i <= to; i++ {
		x.src.publish(x.p, dcp.Mutation{Key: fmt.Sprintf("a%02d", i), Seqno: uint64(i)})
	}
}

// waiter starts Wait(ctx, vector) and returns the channel its result
// arrives on.
func (x *waitFixture) waiter(ctx context.Context, vector map[int]uint64) <-chan error {
	done := make(chan error, 1)
	go func() { done <- x.f.Wait(ctx, vector) }()
	return done
}

// gatedSource parks its second ResumeStream — the re-open that follows
// a rollback — until release closes.
type gatedSource struct {
	*dcp.Producer
	calls           atomic.Int32
	parked, release chan struct{}
	once            sync.Once
}

func (g *gatedSource) open() { g.once.Do(func() { close(g.release) }) }

func (g *gatedSource) ResumeStream(name string, uuid, from uint64) (dcp.MutationStream, error) {
	if g.calls.Add(1) == 2 {
		close(g.parked)
		<-g.release
	}
	return g.Producer.ResumeStream(name, uuid, from)
}

// blocked fails the test if the waiter finishes while it should still
// be parked.
func blocked(t *testing.T, done <-chan error, why string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("Wait returned %v, want it blocked: %s", err, why)
	case <-time.After(30 * time.Millisecond):
	}
}

func released(t *testing.T, done <-chan error, want error) {
	t.Helper()
	select {
	case err := <-done:
		if !errors.Is(err, want) {
			t.Fatalf("Wait = %v, want %v", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Wait still blocked, want %v", want)
	}
}

// TestWait drives the one consistency barrier through every way a wait
// can end or must not end.
func TestWait(t *testing.T) {
	blockedWaits := func() uint64 {
		return metrics.Default.Histogram("couchgo_feed_wait_seconds", "service", "test-wait").Snapshot().Count
	}
	rows := []struct {
		name    string
		applied int
		run     func(t *testing.T, x *waitFixture)
	}{
		{"satisfied vector returns without blocking, allocating or observing", 3, func(t *testing.T, x *waitFixture) {
			before := blockedWaits()
			// An unattached vBucket with nothing wanted of it is met too.
			vector := map[int]uint64{0: 3, 9: 0}
			allocs := testing.AllocsPerRun(100, func() {
				if err := x.f.Wait(context.Background(), vector); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("a satisfied Wait allocates %.0f times", allocs)
			}
			if got := blockedWaits(); got != before {
				t.Errorf("couchgo_feed_wait_seconds observed %d waits that never blocked", got-before)
			}
		}},
		{"a satisfied vector wins over a context that is already done", 3, func(t *testing.T, x *waitFixture) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := x.f.Wait(ctx, map[int]uint64{0: 3}); err != nil {
				t.Errorf("met vector, dead ctx: %v, want nil", err)
			}
			if err := x.f.Wait(ctx, map[int]uint64{0: 4}); !errors.Is(err, context.Canceled) {
				t.Errorf("unmet vector, dead ctx: %v, want context.Canceled", err)
			}
		}},
		{"blocks until the seqno is applied, and the blocked wait is observed", 3, func(t *testing.T, x *waitFixture) {
			before := blockedWaits()
			done := x.waiter(context.Background(), map[int]uint64{0: 5})
			x.publish(4, 4)
			blocked(t, done, "seqno 5 is not applied yet")
			x.publish(5, 5)
			released(t, done, nil)
			if got := blockedWaits(); got != before+1 {
				t.Errorf("couchgo_feed_wait_seconds count moved by %d, want 1", got-before)
			}
		}},
		{"no wake-up is lost when a seqno store races the waiter's registration", 3, func(t *testing.T, x *waitFixture) {
			for i := 4; i <= 300; i++ {
				done := x.waiter(context.Background(), map[int]uint64{0: uint64(i)})
				x.publish(i, i)
				released(t, done, nil)
			}
		}},
		{"unattached vBucket blocks until ctx is cancelled", 3, func(t *testing.T, x *waitFixture) {
			ctx, cancel := context.WithCancel(context.Background())
			done := x.waiter(ctx, map[int]uint64{0: 3, 7: 1})
			blocked(t, done, "vBucket 7 was never attached")
			cancel()
			released(t, done, context.Canceled)
		}},
		{"stale-branch rollback rewinds the vector under a parked waiter", 10, func(t *testing.T, x *waitFixture) {
			done := x.waiter(context.Background(), map[int]uint64{0: 11})
			blocked(t, done, "the old active stops at 10")
			// Failover onto a replica that only has 1..5: the feed rolls
			// the consumer back and re-streams; the promoted copy then
			// writes its own 6..10.
			x.src, x.p = promoteDivergedReplica(x.p)
			if err := x.f.Attach(0, x.p); err != nil {
				t.Fatal(err)
			}
			x.publish(6, 10)
			waitFor(t, "re-stream applied", func() bool { return x.f.Processed()[0] == 10 })
			blocked(t, done, "the new branch is at 10 again, not 11")
			short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			if err := x.f.Wait(short, map[int]uint64{0: 11}); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("second waiter = %v, want deadline exceeded", err)
			}
			x.publish(11, 11)
			released(t, done, nil)
		}},
		{"a Wait arriving between Rollback and the re-open blocks through the re-stream", 10, func(t *testing.T, x *waitFixture) {
			c := x.f.consumer.(*recordingConsumer)
			var replica *dcp.Producer
			x.src, replica = promoteDivergedReplica(x.p)
			x.p = replica
			g := &gatedSource{Producer: replica, parked: make(chan struct{}), release: make(chan struct{})}
			attached := make(chan error, 1)
			go func() { attached <- x.f.Attach(0, g) }()
			// Attach holds the lifecycle lock while parked; a failing
			// assertion must still let the fixture's Close through.
			defer g.open()
			<-g.parked
			// The consumer is wiped and the rewound vbFeed is not installed
			// yet: seqno 5 is on the shared history but not in the consumer.
			if n := len(c.snapshot(0)); n != 0 {
				t.Fatalf("consumer holds %d docs inside the rollback window, want 0", n)
			}
			done := x.waiter(context.Background(), map[int]uint64{0: 5})
			blocked(t, done, "the consumer is empty until the re-stream")
			g.open()
			if err := <-attached; err != nil {
				t.Fatal(err)
			}
			released(t, done, nil)
			if n := len(c.snapshot(0)); n != 5 {
				t.Fatalf("Wait returned with %d of 5 docs applied", n)
			}
		}},
		{"Detach forgets the vector: the waiter needs the re-attach and the re-stream", 3, func(t *testing.T, x *waitFixture) {
			x.f.Detach(0)
			done := x.waiter(context.Background(), map[int]uint64{0: 3})
			blocked(t, done, "vBucket 0 is detached")
			if err := x.f.Attach(0, x.p); err != nil {
				t.Fatal(err)
			}
			released(t, done, nil)
		}},
		{"Close releases waiters", 3, func(t *testing.T, x *waitFixture) {
			done := x.waiter(context.Background(), map[int]uint64{0: 4})
			blocked(t, done, "seqno 4 does not exist")
			x.f.Close()
			released(t, done, ErrClosed)
			if err := x.f.Wait(context.Background(), map[int]uint64{0: 1}); !errors.Is(err, ErrClosed) {
				t.Fatalf("Wait on a closed feed = %v", err)
			}
			// A read that asked for no consistency is not failed by it.
			if err := x.f.Wait(context.Background(), nil); err != nil {
				t.Fatalf("empty-vector Wait on a closed feed = %v", err)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			x := &waitFixture{src: newMemSource()}
			x.p = dcp.NewProducer(0, x.src)
			defer func() { x.p.Close() }()
			x.f = New("t-wait", "test-wait", newRecordingConsumer())
			defer x.f.Close()
			if err := x.f.Attach(0, x.p); err != nil {
				t.Fatal(err)
			}
			x.publish(1, row.applied)
			if err := x.f.Wait(context.Background(), map[int]uint64{0: uint64(row.applied)}); err != nil {
				t.Fatal(err)
			}
			row.run(t, x)
		})
	}
}

// TestConsumersKeepNoSeqnoVector keeps a fifth consumer from re-growing
// what Feed.Wait replaced: under the consuming services no struct pairs
// a map[int]uint64 field with a *sync.Cond sibling. The feed's vector is
// the only one. (No waitFor is a row of couchvet's structure table.)
func TestConsumersKeepNoSeqnoVector(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range []string{"gsi", "views", "fts", "analytics", "xdcr"} {
		err := filepath.WalkDir(filepath.Join("..", pkg), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if n, ok := n.(*ast.StructType); ok {
					var vector, cond bool
					for _, field := range n.Fields.List {
						switch types.ExprString(field.Type) {
						case "map[int]uint64":
							vector = true
						case "*sync.Cond":
							cond = true
						}
					}
					if vector && cond {
						t.Errorf("%s: struct keeps a map[int]uint64 beside a *sync.Cond; the feed owns the applied-seqno vector", fset.Position(n.Pos()))
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
