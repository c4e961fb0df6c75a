package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"couchgo/internal/analytics"
	"couchgo/internal/cmap"
	"couchgo/internal/executor"
	"couchgo/internal/fts"
	"couchgo/internal/views"
)

// TestReadYourWritesEveryService: the four DCP-fed query surfaces share
// one barrier (feed.Feed.Wait), so one table drives them all. A write
// followed by a consistent read is visible; a consistent read against a
// vBucket the service's feed is not attached to parks until its context
// is cancelled, then fails with context.Canceled.
func TestReadYourWritesEveryService(t *testing.T) {
	c, cl := newTestCluster(t, 1, 0)
	nb, err := c.nodeBucket("node0", "default")
	if err != nil {
		t.Fatal(err)
	}
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
		name   string
		detach func(vb int)
		read   func(ctx context.Context, tag string) (int, error)
	}{
		{"n1ql request_plus", nb.projector.DetachVB, func(ctx context.Context, tag string) (int, error) {
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
		{"fts consistent", nb.fts.DetachVB, func(ctx context.Context, tag string) (int, error) {
			hits, err := eng.SearchTerm(ctx, "byTag", tag, fts.SearchOptions{WaitSeqnos: c.ConsistencyVector("default")})
			return len(hits), err
		}},
		{"analytics consistent", nb.analytics.DetachVB, func(ctx context.Context, tag string) (int, error) {
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
			svc.detach(cmap.VBucketID(key, 16))
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
