package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"couchgo/internal/analytics"
	"couchgo/internal/cmap"
	"couchgo/internal/dcp"
	"couchgo/internal/executor"
	"couchgo/internal/fts"
	"couchgo/internal/views"
)

// stalledSource is a vBucket producer whose streams never deliver:
// attached in a real one's place, it severs a service's feed from it.
type stalledSource struct{}

type stalledStream struct {
	uuid uint64
	once sync.Once
	done chan struct{}
}

func (stalledSource) ResumeStream(_ string, uuid, _ uint64) (dcp.MutationStream, error) {
	return &stalledStream{uuid: uuid, done: make(chan struct{})}, nil
}
func (stalledSource) HighSeqno() (uint64, error)       { return 0, nil }
func (stalledSource) FailoverLog() []dcp.FailoverEntry { return nil }

func (s *stalledStream) Next() ([]dcp.Mutation, bool) { <-s.done; return nil, false }
func (s *stalledStream) StreamUUID() uint64           { return s.uuid }
func (s *stalledStream) Close()                       { s.once.Do(func() { close(s.done) }) }

// TestReadYourWritesEveryService: the four DCP-fed query surfaces share
// one barrier (feed.Feed.Wait), so one table drives them all. A write
// followed by a consistent read is visible; a consistent read against a
// vBucket the service's feed no longer hears from parks until its
// context is cancelled, then fails with context.Canceled. Severing the
// bucket hub severs GSI, FTS and analytics at once, so each row gives
// the vBucket its real producer back when it is done.
func TestReadYourWritesEveryService(t *testing.T) {
	c, cl := newTestCluster(t, 1, 0)
	nb, err := c.nodeBucket("node0", "default")
	if err != nil {
		t.Fatal(err)
	}
	severHub := func(vb int) { nb.hub.AttachVB(vb, stalledSource{}) }
	if _, err := c.Query("CREATE INDEX byTag ON `default`(tag)", executor.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineView("default", views.Definition{Name: "byTag", Map: views.MapSpec{Key: "doc.tag"}}); err != nil {
		t.Fatal(err)
	}
	eng, err := c.FTS("default")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Define(fts.IndexDef{Name: "byTag", Fields: []string{"tag"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableAnalytics("default"); err != nil {
		t.Fatal(err)
	}

	// Each read returns the IDs of the documents tagged tag.
	services := []struct {
		name  string
		sever func(vb int)
		read  func(ctx context.Context, tag string) (int, error)
	}{
		{"n1ql request_plus", severHub, func(ctx context.Context, tag string) (int, error) {
			res, err := c.Query("SELECT META().id FROM `default` WHERE tag = $t",
				executor.Options{Ctx: ctx, Consistency: executor.RequestPlus, Params: map[string]any{"t": tag}})
			if err != nil {
				return 0, err
			}
			return len(res.Rows), nil
		}},
		{"view stale=false", nb.viewEngine.DetachVB, func(ctx context.Context, tag string) (int, error) {
			rows, err := c.QueryView(ctx, "default", "byTag", views.QueryOptions{Key: tag, HasKey: true, Stale: views.StaleFalse})
			return len(rows), err
		}},
		{"fts consistent", severHub, func(ctx context.Context, tag string) (int, error) {
			hits, err := eng.SearchTerm(ctx, "byTag", tag, fts.SearchOptions{WaitSeqnos: c.ConsistencyVector("default")})
			return len(hits), err
		}},
		{"analytics consistent", severHub, func(ctx context.Context, tag string) (int, error) {
			rows, err := c.AnalyticsQuery(ctx, "default", "SELECT META().id FROM `default` WHERE tag = $t",
				analytics.QueryOptions{Params: map[string]any{"t": tag}, WaitSeqnos: c.ConsistencyVector("default")})
			return len(rows), err
		}},
	}
	for i, svc := range services {
		t.Run(svc.name, func(t *testing.T) {
			tag := fmt.Sprintf("tag%d", i)
			for n := 1; n <= 5; n++ {
				key := fmt.Sprintf("%s::%d", tag, n)
				if _, err := cl.Set(context.Background(), key, []byte(fmt.Sprintf(`{"tag": %q}`, tag)), 0); err != nil {
					t.Fatal(err)
				}
				if got, err := svc.read(context.Background(), tag); err != nil || got != n {
					t.Fatalf("after write %d: read %d documents, err %v", n, got, err)
				}
			}

			// Sever one vBucket from this service's feed, then write to it:
			// the data service's seqno moves on, the index's cannot.
			key := tag + "::severed"
			vb := cmap.VBucketID(key, 16)
			svc.sever(vb)
			defer func() {
				nb.mu.Lock()
				nb.attachConsumersLocked(nb.vb(vb))
				nb.mu.Unlock()
			}()
			if _, err := cl.Set(context.Background(), key, []byte(fmt.Sprintf(`{"tag": %q}`, tag)), 0); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := svc.read(ctx, tag)
				done <- err
			}()
			select {
			case err := <-done:
				t.Fatalf("consistent read of a severed vBucket returned early: %v", err)
			case <-time.After(50 * time.Millisecond):
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled read = %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled read still parked after 5s")
			}
		})
	}
}
