package core_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/executor"
	"couchgo/internal/transport"
)

// goroutinesIn counts the live goroutines with one of frames somewhere
// on their stack. A vBucket's flusher is no stream's: it parks in its
// cursor of the vBucket's dcp log, and is not counted.
func goroutinesIn(frames ...string) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "vbucket.(*VBucket).flusher") {
			continue
		}
		for _, frame := range frames {
			if strings.Contains(g, frame) {
				count++
				break
			}
		}
	}
	return count
}

// TestStreamGoroutines: an open DCP stream costs one goroutine, its
// consumer's, on every path. 64 vBuckets over 2 nodes with 1 replica and
// 1 GSI index are 64 replica streams and 64 projector streams.
//
// In one process that is 64 links and 64 drains, each parked in its
// stream's Next and so also the only goroutine with a dcp or feed frame
// on its stack: 128 in all. (At the commit before the pull form: a pump
// per stream and a puller beside every drain, 64 + 128 + 128 = 320.)
//
// Over the wire a replica stream has two ends: the link, parked in
// RemoteStream.Next where a readLoop used to feed it, and the source's
// pumpStream, parked in Stream.Next where a pump used to feed it. Each
// member's projector drains only its 32 actives, since every copy is
// created in its formed state: 64 + 64 + 64 = 192 in all, from 640.
func TestStreamGoroutines(t *testing.T) {
	const (
		numVB = 64
		link  = "core.(*nodeBucket).runLink"
		drain = "feed.(*Feed).drain"
		serve = "transport.(*session).pumpStream"
	)
	newCluster := func(t *testing.T, nodes int) *core.Cluster {
		c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: numVB})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		for i := 0; i < nodes; i++ {
			if _, err := c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.CreateBucket(bucket, core.BucketOptions{NumReplicas: 1}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name          string
		build         func(t *testing.T) []*core.Cluster
		drains, serve int // feed drains, pumpStream goroutines
	}{
		{"in-process", func(t *testing.T) []*core.Cluster { return []*core.Cluster{newCluster(t, 2)} }, numVB, 0},
		{"wire", func(t *testing.T) []*core.Cluster {
			clusters := []*core.Cluster{newCluster(t, 0), newCluster(t, 0)}
			seed := ""
			for _, c := range clusters {
				n, err := transport.StartNode(transport.NodeOptions{
					Cluster: c, Bucket: bucket, KVAddr: "127.0.0.1:0", ClusterSize: 2, Join: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(n.Close)
				if seed == "" {
					seed = n.KVAddr()
				}
			}
			return clusters
		}, numVB, numVB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Earlier tests' links and sessions wind down first.
			eventually(t, "earlier tests' stream goroutines to exit", func() error {
				if n := goroutinesIn(link, drain, serve); n != 0 {
					return fmt.Errorf("%d left", n)
				}
				return nil
			})
			clusters := tc.build(t)
			// The members of a wire pair form on their own; the index and the
			// writes wait for every chain to have its replica.
			eventually(t, "every chain to have a replica", func() error {
				for _, c := range clusters {
					m, err := c.BucketMap(bucket)
					if err != nil || len(m.Nodes) != 2 || len(m.Chains[0]) != 2 {
						return fmt.Errorf("map %v, err %v", m, err)
					}
				}
				return nil
			})
			for _, c := range clusters {
				if _, err := c.Query("CREATE INDEX byAge ON `default`(age)", executor.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.serve == 0 { // a wire pair's clients live in transport's own tests
				cl, err := clusters[0].OpenBucket(bucket)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4*numVB; i++ {
					if _, err := cl.Set(context.Background(), fmt.Sprintf("k%d", i), []byte(`{"age": 1}`), 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			eventually(t, "one goroutine per stream", func() error {
				links, drains, serves := goroutinesIn(link), goroutinesIn(drain), goroutinesIn(serve)
				all := goroutinesIn(link, serve, "couchgo/internal/feed.", "couchgo/internal/dcp.", "transport.(*RemoteStream)")
				if want := numVB + tc.drains + tc.serve; links != numVB || drains != tc.drains || serves != tc.serve || all != want {
					return fmt.Errorf("%d link, %d drain, %d serving and %d stream goroutines in all, want %d, %d, %d and %d",
						links, drains, serves, all, numVB, tc.drains, tc.serve, want)
				}
				return nil
			})
		})
	}
}
