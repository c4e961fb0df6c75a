package transport

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"couchgo/internal/core"
	"couchgo/internal/memcproto"
)

// rawServed starts a one-node cluster behind a server and returns a
// pooled conn for hand-built frames plus a client for checking state.
func rawServed(t *testing.T) (*Conn, core.NodeConn) {
	t.Helper()
	_, srv, _ := newServedCluster(t, 0)
	pool := NewPool()
	t.Cleanup(pool.Close)
	conn, err := pool.Get(addrOf(srv))
	if err != nil {
		t.Fatal(err)
	}
	return conn, netConn{addr: addrOf(srv), pool: pool}
}

// TestHostileShortExtras sends, for every op-table row, requests whose
// extras are shorter than the row's layout — absent, one byte short,
// and one byte short with a valid trace context appended, which must
// not count toward the layout. Each must be refused with bad_request
// before any field is read as a silent zero; the TTL check at the end
// is the damage the unvalidated Touch used to do.
func TestHostileShortExtras(t *testing.T) {
	conn, nc := rawServed(t)
	ctx := context.Background()
	const now, expiry = 1700000000, 1700000500
	if _, err := nc.Do(ctx, 0, core.Op{Code: memcproto.OpSet, Key: "ttl", Value: []byte(`{"n":1}`), Expiry: expiry, Now: now}); err != nil {
		t.Fatal(err)
	}

	layouts := map[memcproto.Layout]bool{}
	for _, spec := range memcproto.KVOps() {
		layouts[spec.Extras] = true
		short := spec.Extras.Len() - 1
		// The prefix is well-formed as far as it goes: a real clock,
		// then zeros.
		prefix := memcproto.AppendUint64(nil, now)
		prefix = append(prefix, make([]byte, spec.Extras.Len())...)
		cases := []struct {
			name     string
			extras   []byte
			datatype byte
		}{
			{"none", nil, 0},
			{"one_short", prefix[:short], 0},
			{"one_short_plus_trace_ctx",
				memcproto.AppendTraceContext(prefix[:short:short], memcproto.TraceContext{TraceID: 7, SpanID: 1}),
				memcproto.DatatypeTraceCtx},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s/%s", spec.Extras, spec.Name, tc.name), func(t *testing.T) {
				resp, err := conn.Roundtrip(ctx, &memcproto.Frame{
					Magic: memcproto.MagicReq, Opcode: spec.Code, Datatype: tc.datatype,
					Key: []byte("ttl"), Extras: tc.extras, Value: []byte("n"),
				})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Status != memcproto.StatusBadRequest {
					t.Fatalf("status = %s, want bad_request", resp.Status)
				}
			})
		}
	}
	for l := memcproto.LayoutNow; l <= memcproto.LayoutXDCR; l++ {
		if !layouts[l] {
			t.Errorf("layout %s has no short-extras case: no op uses it", l)
		}
	}

	res, err := nc.Do(ctx, 0, core.Op{Code: memcproto.OpGet, Key: "ttl", Now: now})
	if err != nil || res.Item.Expiry != expiry || string(res.Item.Value) != `{"n":1}` {
		t.Fatalf("after the hostile frames: item %+v, err %v; want the document untouched with expiry %d", res.Item, err, expiry)
	}
}

// TestUnknownOpcodeNotSupported pins the dispatcher's default arm: an
// opcode with no table row — unassigned KV-range bytes, 0x0b that once
// named the never-implemented OBSERVE, or a byte outside every range —
// is answered not_supported, never executed or dropped.
func TestUnknownOpcodeNotSupported(t *testing.T) {
	conn, _ := rawServed(t)
	for _, code := range []memcproto.Opcode{0x0b, 0x0c, 0x15, 0x1f, 0x60, 0xff} {
		if !strings.HasPrefix(code.String(), "op_0x") {
			t.Fatalf("opcode 0x%02x is known; pick another", uint8(code))
		}
		resp, err := conn.Roundtrip(context.Background(), &memcproto.Frame{
			Magic: memcproto.MagicReq, Opcode: code, Key: []byte("k"),
			Extras: memcproto.AppendUint64(nil, 1700000000),
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != memcproto.StatusNotSupported {
			t.Errorf("opcode 0x%02x: status = %s, want not_supported", uint8(code), resp.Status)
		}
	}
}
