package transport

import (
	"context"
	"testing"
	"time"

	"couchgo/internal/memcproto"
	"couchgo/internal/metrics"
	"couchgo/internal/trace"
)

// TestWireTracePropagation drives one sampled write through the wire
// client and asserts the server adopted the caller's trace: the
// request's trace context produces a foreign portion under the same
// trace ID whose server:set span is remote-parented to the client's
// root span.
func TestWireTracePropagation(t *testing.T) {
	_, _, cl := newServedCluster(t, 0)
	trace.Default.SetRate(1)
	t.Cleanup(func() {
		trace.Default.SetRate(0)
		trace.Default.Clear()
	})

	ctx, root := trace.Default.Start(context.Background(), "client:op")
	if root == nil {
		t.Fatal("rate 1 did not sample")
	}
	id := root.Trace().ID
	_, rootWire, ok := trace.FromContext(ctx).WireContext()
	if !ok {
		t.Fatal("no wire context on sampled span")
	}
	if _, err := cl.Set(ctx, "traced", []byte(`{}`), 0); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if _, err := cl.Get(ctx, "traced"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	root.End()

	// Same process plays client and server, so the tracer holds two
	// portions of the trace: the local root and the foreign portion
	// the server session adopted off the wire.
	portions := trace.Default.Portions(id)
	if len(portions) != 2 {
		t.Fatalf("portions: %d, want 2 (local + adopted)", len(portions))
	}
	var foreign, local *trace.Export
	for _, p := range portions {
		ex := p.Export("srv")
		if ex.Foreign {
			foreign = &ex
		} else {
			local = &ex
		}
	}
	if foreign == nil || local == nil {
		t.Fatalf("want one local and one adopted portion (foreign=%v local=%v)", foreign != nil, local != nil)
	}
	names := map[string]bool{}
	for _, sp := range foreign.Spans {
		names[sp.Name] = true
	}
	if !names["server:set"] || !names["server:get"] {
		t.Fatalf("adopted spans: %v, want server:set and server:get", names)
	}
	// Adopted spans remote-parent to a span the client actually sent
	// (the innermost client span at the wire seam — the root itself,
	// or a kv child under it); server-local children (cache:*) carry
	// local parents instead.
	clientSpans := map[uint32]bool{rootWire: true}
	for _, sp := range local.Spans {
		clientSpans[sp.ID] = true
	}
	remotes := 0
	for _, sp := range foreign.Spans {
		if sp.RemoteParent != nil {
			remotes++
			if !clientSpans[*sp.RemoteParent] {
				t.Fatalf("span %s remote-parented to %d, not a client span", sp.Name, *sp.RemoteParent)
			}
		} else if sp.Parent == nil {
			t.Fatalf("span %s has neither local nor remote parent", sp.Name)
		}
	}
	if remotes == 0 {
		t.Fatal("no adopted span carries a remote parent")
	}

	// And the two portions stitch into one tree rooted at the client.
	tree := trace.Stitch([]trace.Export{portions[0].Export("cli"), portions[1].Export("srv")})
	if tree == nil || tree.Name != "client:op" {
		t.Fatalf("stitched root: %+v", tree)
	}
	if len(tree.Children) == 0 {
		t.Fatal("server spans did not graft under the client root")
	}

	// Server-side op latency carries the result label.
	if n := opHistogram("set", "ok").Snapshot().Count; n == 0 {
		t.Fatal(`no samples under couchgo_transport_op_seconds{opcode="set",result="ok"}`)
	}
}

// TestUnsampledRequestAddsNothing: without a sampled span in ctx the
// request frame carries no trace context and datatype stays zero —
// wire-identical to an old client.
func TestUnsampledRequestAddsNothing(t *testing.T) {
	extras := []byte{1, 2, 3}
	out, datatype := injectTraceCtx(extras, context.Background())
	if datatype != 0 || len(out) != len(extras) {
		t.Fatalf("unsampled ctx mutated the frame: datatype=%d extras=%d", datatype, len(out))
	}
}

// TestFederateOpcode: OpFederate dispatches to the ServerConfig's
// Observe callback; without one it is NOT_SUPPORTED, never a hang or
// a KV dispatch.
func TestFederateOpcode(t *testing.T) {
	_, srv, _ := newServedCluster(t, 0) // Observe nil
	pool := NewPool()
	t.Cleanup(pool.Close)
	conn, err := pool.Get(addrOf(srv))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	resp, err := conn.Roundtrip(ctx, &memcproto.Frame{
		Magic:  memcproto.MagicReq,
		Opcode: memcproto.OpFederate,
		Key:    []byte("metrics"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != memcproto.StatusNotSupported {
		t.Fatalf("OpFederate without provider: %s, want NOT_SUPPORTED", resp.Status)
	}
}

// TestNMVBCounterPerOpcode: the per-opcode NMVB series must track the
// originating op alongside the unlabeled total.
func TestNMVBCounterPerOpcode(t *testing.T) {
	before := metrics.Default.Counter("couchgo_notmyvbucket_total", "opcode", "get").Value()
	nmvbCounter("get").Inc()
	after := metrics.Default.Counter("couchgo_notmyvbucket_total", "opcode", "get").Value()
	if after != before+1 {
		t.Fatalf("labeled NMVB counter: %d -> %d", before, after)
	}
}
