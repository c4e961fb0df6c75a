package transport

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"couchgo/internal/core"
	"couchgo/internal/memcproto"
)

// carried is the spec the codec is fuzzed against: op reduced to the
// fields its layout puts on the wire, in the form the decoder returns
// them.
func carried(l memcproto.Layout, op core.Op) core.Op {
	out := core.Op{Code: op.Code, Key: op.Key, CAS: op.CAS, Now: op.Now}
	value := op.Value
	if len(value) == 0 {
		value = nil
	}
	switch l {
	case memcproto.LayoutNow:
		out.Value = value
	case memcproto.LayoutNowMutate:
		out.Value, out.Flags, out.Expiry, out.Dur = value, op.Flags, op.Expiry, op.Dur
	case memcproto.LayoutNowU64:
		out.Expiry = op.Expiry
	case memcproto.LayoutNowSubdoc:
		out.Path = op.Path
	case memcproto.LayoutNowSubdocDoc:
		out.Path, out.Doc = op.Path, op.Doc
	case memcproto.LayoutNowSubdocDelta:
		out.Path, out.Delta = op.Path, op.Delta
	case memcproto.LayoutXDCR:
		out.Now = 0
		out.Value, out.Flags, out.Expiry, out.RevSeqno, out.Deleted = value, op.Flags, op.Expiry, op.RevSeqno, op.Deleted
	}
	return out
}

// FuzzOpRoundTrip checks the table-driven codec both ways: a request
// encoded by its row decodes to the same Op (through real frame
// bytes), and arbitrary extras under any opcode never panic and are
// never accepted shorter than the row's layout.
func FuzzOpRoundTrip(f *testing.F) {
	f.Add(byte(memcproto.OpSet), "k", []byte(`{"a":1}`), uint64(9), int64(1700000000), uint32(7), int64(1700000100),
		uint64(3), "a.b", []byte(`[1,"x",null]`), 2.5, true, uint8(1), true, uint32(1500), []byte{0, 1, 2}, byte(0))
	f.Add(byte(memcproto.OpSubdocCounter), "doc", []byte(nil), uint64(0), int64(1), uint32(0), int64(0),
		uint64(0), "n", []byte(`null`), -1.0, false, uint8(0), false, uint32(0), make([]byte, 40), byte(1))
	f.Add(byte(0x0b), "", []byte(nil), uint64(0), int64(0), uint32(0), int64(0),
		uint64(0), "", []byte(nil), 0.0, false, uint8(0), false, uint32(0), []byte(nil), byte(1))

	f.Fuzz(func(t *testing.T, code byte, key string, value []byte, cas uint64, now int64, flags uint32, expiry int64,
		rev uint64, path string, doc []byte, delta float64, deleted bool, replicateTo uint8, persist bool, timeoutMS uint32,
		rawExtras []byte, datatype byte) {
		if len(key) > memcproto.MaxKeyLen || len(path) > 0xffff || len(rawExtras) > 0xff {
			return
		}
		raw := &memcproto.Frame{Magic: memcproto.MagicReq, Opcode: memcproto.Opcode(code), Datatype: datatype,
			Extras: rawExtras, Key: []byte(key), Value: value}
		for _, spec := range memcproto.KVOps() {
			_, bare, err := memcproto.SplitTraceContext(raw)
			if err != nil {
				continue
			}
			if _, err := decodeRequest(&spec, raw, bare); err == nil && len(bare) < spec.Extras.Len() {
				t.Fatalf("%s accepted %d extras bytes, layout %s needs %d", spec.Name, len(bare), spec.Extras, spec.Extras.Len())
			}
		}

		spec := memcproto.SpecOf(memcproto.Opcode(code))
		if spec == nil {
			return
		}
		if delta != delta {
			delta = 0 // NaN never compares equal
		}
		op := core.Op{Code: spec.Code, Key: key, Value: value, CAS: cas, Now: now, Flags: flags, Expiry: expiry,
			RevSeqno: rev, Path: path, Delta: delta, Deleted: deleted,
			Dur: core.DurabilityOptions{ReplicateTo: int(replicateTo), PersistTo: persist, Timeout: time.Duration(timeoutMS) * time.Millisecond}}
		if json.Unmarshal(doc, &op.Doc) != nil {
			op.Doc = nil
		}
		req, err := encodeRequest(context.Background(), spec, 5, op)
		if err != nil {
			t.Fatal(err)
		}
		if len(req.Extras) != spec.Extras.Len() {
			t.Fatalf("%s encoded %d extras bytes, layout %s is %d", spec.Name, len(req.Extras), spec.Extras, spec.Extras.Len())
		}
		wire, err := req.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := memcproto.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeRequest(spec, got, got.Extras)
		if err != nil {
			t.Fatal(err)
		}
		if want := carried(spec.Extras, op); !reflect.DeepEqual(back, want) || got.VBucket != 5 {
			t.Fatalf("%s round trip:\n got  %+v\n want %+v", spec.Name, back, want)
		}
	})
}

// TestEncodeRequestAllocBudget gates the client encode step of
// netConn.Do. The parent commit's netConn.Get allocated 3 times
// building its request (extras, key bytes, frame) and netConn.Set 5
// (now, MutateExtras, their concatenation, key bytes, frame); the
// table-driven encoder sizes the extras once.
func TestEncodeRequestAllocBudget(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		op     core.Op
		budget float64
	}{
		{core.Op{Code: memcproto.OpGet, Key: "user4316891766", Now: 1700000000}, 3},
		{core.Op{Code: memcproto.OpSet, Key: "user4316891766", Value: make([]byte, 1024), Now: 1700000000}, 4},
	} {
		spec := memcproto.SpecOf(tc.op.Code)
		var sink *memcproto.Frame
		n := testing.AllocsPerRun(1000, func() {
			sink, _ = encodeRequest(ctx, spec, 7, tc.op)
		})
		if sink == nil || n > tc.budget {
			t.Errorf("encodeRequest(%s) allocates %.1f times per op, budget %.0f", spec.Name, n, tc.budget)
		}
	}
}
