package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"couchgo/internal/memcproto"
	"couchgo/internal/trace"
	"couchgo/internal/vbucket"
)

// TestEveryOpRowHasExecutorArm closes the table's loop on the core
// side: each row of the KV op table must reach an arm of the single
// executor (its failure, if any, is the op's own), and an opcode
// without a row must not.
func TestEveryOpRowHasExecutorArm(t *testing.T) {
	c, _ := newTestCluster(t, 1, 0)
	conn, err := c.LoopbackConn("node0", "default")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, spec := range memcproto.KVOps() {
		if _, err := conn.Do(ctx, 0, Op{Code: spec.Code, Key: "k", Path: "p"}); errors.Is(err, vbucket.ErrUnknownOp) {
			t.Errorf("op table row %s has no executor arm", spec.Name)
		}
	}
	if _, err := conn.Do(ctx, 0, Op{Code: 0x0b, Key: "k"}); !errors.Is(err, vbucket.ErrUnknownOp) {
		t.Errorf("opcode 0x0b has no row but executed: err = %v", err)
	}
}

// TestLoopbackDoGetZeroAlloc gates the descriptor's cost on the
// in-process read path: a resident Get through the NodeConn interface
// must not allocate, i.e. neither Op nor Result escapes.
func TestLoopbackDoGetZeroAlloc(t *testing.T) {
	c, cl := newTestCluster(t, 1, 0)
	ctx := context.Background()
	if _, err := cl.Set(ctx, "hot", []byte(`{"n":1}`), 0); err != nil {
		t.Fatal(err)
	}
	m, err := c.BucketMap("default")
	if err != nil {
		t.Fatal(err)
	}
	node, vbID := m.NodeForKey("hot")
	conn, err := c.LoopbackConn(node, "default")
	if err != nil {
		t.Fatal(err)
	}
	op := Op{Code: memcproto.OpGet, Key: "hot", Now: 1700000000}
	var res Result
	n := testing.AllocsPerRun(1000, func() {
		res, err = conn.Do(ctx, vbID, op)
	})
	if err != nil || string(res.Item.Value) != `{"n":1}` {
		t.Fatalf("Do(get) = %+v, %v", res.Item, err)
	}
	if n != 0 {
		t.Errorf("loopback Do(get) allocates %.1f times per op, want 0", n)
	}
}

// TestClientGetZeroAlloc is the same gate over the whole client: a
// resident Get through Client.do → route → Conn → Do allocates nothing.
// The test above takes its conn outside the measured function, which is
// how one allocation per op (a conn boxed into NodeConn on every Conn
// call) and a second (the key copied for its CRC) went unseen.
func TestClientGetZeroAlloc(t *testing.T) {
	_, cl := newTestCluster(t, 2, 1)
	ctx := context.Background()
	if _, err := cl.Set(ctx, "hot", []byte(`{"n":1}`), 0); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(1000, func() {
		if it, err := cl.Get(ctx, "hot"); err != nil || len(it.Value) != 7 {
			t.Fatalf("Get = %+v, %v", it, err)
		}
	})
	if n != 0 {
		t.Errorf("a resident Get through the client allocates %.1f times per op, want 0", n)
	}
}

// TestGetMetaHasRootSpan pins the drift the shared cl.do removed:
// GetMeta was the one client op that opened no kv:* root span.
// GET_META has no client method now; its op-table row rides cl.do.
func TestGetMetaHasRootSpan(t *testing.T) {
	_, cl := newTestCluster(t, 1, 0)
	ctx := context.Background()
	if _, err := cl.Set(ctx, "m", []byte(`{}`), 0); err != nil {
		t.Fatal(err)
	}
	withTracing(t)
	ctx, sp := trace.Default.Start(ctx, "test:getmeta")
	if _, err := cl.do(ctx, Op{Code: memcproto.OpGetMeta, Key: "m"}); err != nil {
		t.Fatal(err)
	}
	sp.End()
	if names := spanNames(sp.Trace()); !slices.Contains(names, "kv:getmeta") {
		t.Errorf("GetMeta opened no kv:getmeta span; have %v", names)
	}
}
