package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/dcp"
	"couchgo/internal/feed"
	"couchgo/internal/gsi"
	"couchgo/internal/memcproto"
	"couchgo/internal/vbucket"
)

// corruptingProxy relays TCP conversations to target and truncates the
// extras of the pushed DCP mutations that corrupt picks, so they no
// longer decode as an ItemMeta: one per conversation at most, since what
// follows a corrupt push on its conn may never be read.
func corruptingProxy(t *testing.T, target string, corrupt func() bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			go func() { // requests and acks pass untouched
				io.Copy(up, down)
				up.Close()
			}()
			go func() {
				defer down.Close()
				spent := false
				for {
					f, err := memcproto.Read(up)
					if err != nil {
						return
					}
					if f.Magic == memcproto.MagicPush && f.Opcode == memcproto.OpDCPMutation && !spent && corrupt() {
						spent = true
						f.Extras = f.Extras[:3]
					}
					buf, err := f.Append(nil)
					if err != nil {
						return
					}
					if _, err := down.Write(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// proxiedSource is socketSource with every member reached through its
// corrupting proxy.
type proxiedSource map[cmap.NodeID]string

func (p proxiedSource) Source(node cmap.NodeID, vb int) (dcp.StreamSource, error) {
	return NewRemoteProducer(p[node], vb), nil
}

func (proxiedSource) Ack(src dcp.StreamSource, stream dcp.MutationStream, replica string, seqno uint64) {
	socketSource{}.Ack(src, stream, replica, seqno)
}

// TestCorruptPushEndsTheStream: a pushed mutation that does not decode
// is not skipped. It ends the stream and counts as a dropped frame; the
// link reconnects from the last seqno it applied, so the replica ends up
// holding every key (it used to miss the corrupted ones for good).
func TestCorruptPushEndsTheStream(t *testing.T) {
	const numVB, corruptions = 2, 3
	nodes, clusters := processPair(t, numVB)
	var pushed, corrupted atomic.Int32
	corrupt := func() bool { // every fifth pushed mutation, three times
		return pushed.Add(1)%5 == 0 && corrupted.Add(1) <= corruptions
	}
	via := proxiedSource{}
	for _, n := range nodes {
		via[cmap.NodeID(n.self)] = corruptingProxy(t, n.self, corrupt)
	}
	// Re-link every replica through the proxies: a map without replicas,
	// then the formed chains again, applied with the proxied source.
	formed := nodes[0].currentMap()
	solo, healed := formed.Clone(), formed.Clone()
	solo.Rev, healed.Rev = formed.Rev+1, formed.Rev+2
	for vb, chain := range solo.Chains {
		solo.Chains[vb] = chain[:1]
	}
	for _, n := range nodes {
		if err := n.apply("default", solo); err != nil {
			t.Fatal(err)
		}
	}
	for i := range nodes {
		if err := clusters[i].ApplyMap("default", healed, via); err != nil {
			t.Fatal(err)
		}
	}

	dropped := mDroppedFrames.Value()
	cl, err := clusters[0].OpenBucket("default")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 200; i++ {
		keys = append(keys, fmt.Sprintf("doc-%03d", i))
		if _, err := cl.Set(context.Background(), keys[i], []byte(`{"n":1}`), 0); err != nil {
			t.Fatal(err)
		}
	}
	copyOf := func(member, vb int) uint64 {
		v, err := clusters[member].NodeVB(cmap.NodeID(nodes[member].self), "default", vb)
		if err != nil || v == nil {
			t.Fatalf("member %d has no copy of vb %d: %v", member, vb, err)
		}
		return v.HighSeqno()
	}
	waitFor(t, 10*time.Second, func() bool {
		for vb := 0; vb < numVB; vb++ {
			if copyOf(0, vb) != copyOf(1, vb) {
				return false
			}
		}
		return true
	})
	for _, key := range keys {
		vb := cmap.VBucketID(key, numVB)
		for member, c := range clusters {
			v, _ := c.NodeVB(cmap.NodeID(nodes[member].self), "default", vb)
			if _, err := v.Table.GetMeta(key); err != nil {
				t.Errorf("member %d's copy of vb %d misses %s: %v", member, vb, key, err)
			}
		}
	}
	if got := corrupted.Load(); got < corruptions {
		t.Fatalf("the proxies corrupted %d pushes, want %d: the test exercised nothing", got, corruptions)
	}
	if got := mDroppedFrames.Value() - dropped; got != corruptions {
		t.Errorf("%d dropped frames counted, want %d", got, corruptions)
	}
}

// TestMutationStreamBatchLifetime is the contract of MutationStream.Next,
// run against the in-process stream and the socket's: a batch is the
// caller's, whole, until its next call of Next, and cleared once that
// call has taken it back. The second half holds every batch while a
// publisher keeps filling whatever slice the stream recycled, which is a
// data race (or a torn batch) as soon as the two are the same memory.
func TestMutationStreamBatchLifetime(t *testing.T) {
	c, srv, _ := newServedCluster(t, 0)
	for name, open := range map[string]func(vb *vbucket.VBucket) dcp.StreamSource{
		"dcp.Stream":   func(vb *vbucket.VBucket) dcp.StreamSource { return vb.Producer() },
		"RemoteStream": func(vb *vbucket.VBucket) dcp.StreamSource { return NewRemoteProducer(addrOf(srv), vb.ID) },
	} {
		t.Run(name, func(t *testing.T) {
			vb, err := c.NodeVB("node0", "default", 0)
			if err != nil || vb == nil {
				t.Fatal(vb, err)
			}
			from := vb.HighSeqno()
			s, err := open(vb).ResumeStream("contract:"+name, 0, from)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			doc := func(seqno uint64) (string, []byte) {
				return fmt.Sprintf("k%05d", seqno), []byte(fmt.Sprintf(`{"n": %d}`, seqno))
			}
			publish := func(n uint64) {
				for i := uint64(0); i < n; i++ {
					key, val := doc(vb.HighSeqno() + 1)
					if _, err := vb.Set(context.Background(), key, val, 0, 0, 0, 0); err != nil {
						t.Error(err)
					}
				}
			}
			// pull reads batches up to seqno high and returns the last one,
			// having checked every mutation of each while it held it.
			next := from + 1
			pull := func(high uint64) (last []dcp.Mutation) {
				for next <= high {
					batch, ok := s.Next()
					if !ok {
						t.Fatalf("stream ended at seqno %d of %d", next, high)
					}
					for _, m := range batch {
						key, val := doc(next)
						if m.Seqno != next || m.Key != key || string(m.Value) != string(val) {
							t.Fatalf("held batch reads %d %s %s, want %d %s %s", m.Seqno, m.Key, m.Value, next, key, val)
						}
						next++
					}
					last = batch
				}
				return last
			}

			publish(3)
			held := pull(from + 3)
			publish(1) // queued while held is still the caller's
			pull(from + 4)
			// Taken back, a slot is empty or holds something newer: it pins
			// nothing of the batch that was applied.
			for i, m := range held {
				if (m.Key != "" || m.Value != nil) && m.Seqno <= from+3 {
					t.Errorf("slot %d of the batch Next took back still holds %+v", i, m)
				}
			}

			const burst = 3000
			done := make(chan struct{})
			go func() {
				defer close(done)
				publish(burst)
			}()
			pull(from + 4 + burst)
			<-done
		})
	}
}

// TestIndexBuildOverDeadSourceFails: RemoteProducer.HighSeqno answered 0
// for a node out of reach, the build read that as an empty vBucket and
// marked the partition built over nothing.
func TestIndexBuildOverDeadSourceFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	hub := feed.NewHub()
	svc, err := gsi.NewService(t.TempDir(), "Profile", hub)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close(); svc.Close() })
	if err := hub.AttachVB(0, NewRemoteProducer(dead, 0)); !errors.Is(err, core.ErrNodeUnreachable) {
		t.Fatalf("attach to a dead address = %v", err)
	}
	err = svc.CreateIndex(gsi.Def{Name: "email", Keyspace: "Profile", SecExprs: []string{"email"}})
	if !errors.Is(err, core.ErrNodeUnreachable) {
		t.Fatalf("CreateIndex over a source out of reach = %v, want ErrNodeUnreachable", err)
	}
	if metas := svc.ListIndexes("Profile"); len(metas) != 1 || metas[0].Built {
		t.Fatalf("catalog after the failed build: %+v", metas)
	}
}
