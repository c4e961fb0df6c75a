package transport

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/dcp"
	"couchgo/internal/memcproto"
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
	for i, n := range nodes {
		if err := clusters[i].ApplyMap("default", healed, cmap.NodeID(n.self), via); err != nil {
			t.Fatal(err)
		}
		n.router.InstallMap(healed)
	}

	dropped := mDroppedFrames.Value()
	cl := core.NewClient(nodes[0].Router(), "default")
	var keys []string
	for i := 0; i < 200; i++ {
		keys = append(keys, fmt.Sprintf("doc-%03d", i))
		if _, err := cl.Set(context.Background(), keys[i], []byte(`{"n":1}`), 0); err != nil {
			t.Fatal(err)
		}
	}
	copyOf := func(member, vb int) uint64 {
		v, err := clusters[member].NodeVB("local", "default", vb)
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
			v, _ := c.NodeVB("local", "default", vb)
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
