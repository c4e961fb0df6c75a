package memcproto

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	frames := []Frame{
		{Magic: MagicReq, Opcode: OpGet, VBucket: 512, Opaque: 7, Key: []byte("k1")},
		{
			Magic: MagicReq, Opcode: OpSet, VBucket: 3, Opaque: 0xdeadbeef,
			CAS:    0x0102030405060708,
			Extras: MutateExtras{Flags: 9, Expiry: 123, ReplicateTo: 1, Persist: true, TimeoutMillis: 2500}.Encode(),
			Key:    []byte("user::42"),
			Value:  []byte(`{"name":"ada"}`),
		},
		{Magic: MagicRes, Opcode: OpGet, Status: StatusKeyNotFound, Opaque: 7, Extras: AppendEpoch(nil, 12)},
		{
			Magic: MagicRes, Opcode: OpGet, Status: StatusNotMyVBucket, Opaque: 8,
			Extras: AppendEpoch(nil, 13), Value: []byte(`{"rev":13}`),
		},
		{Magic: MagicPush, Opcode: OpDCPMutation, VBucket: 17, Opaque: 99,
			CAS:    42,
			Extras: AppendItemMeta(nil, ItemMeta{Seqno: 5, RevSeqno: 2, Flags: 1, Expiry: 0, Resident: true}),
			Key:    []byte("doc"), Value: []byte("v")},
		{Magic: MagicReq, Opcode: OpNoop},
	}
	for i, in := range frames {
		wire, err := in.Encode()
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		out, n, err := Decode(wire)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if n != len(wire) {
			t.Fatalf("frame %d: consumed %d of %d bytes", i, n, len(wire))
		}
		assertFrameEq(t, &in, out)

		// Same frame through the io.Reader path, with trailing bytes
		// to prove Read stops at the frame boundary.
		r := bytes.NewReader(append(append([]byte(nil), wire...), 0xff, 0xee))
		out2, err := Read(r)
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		assertFrameEq(t, &in, out2)
		if r.Len() != 2 {
			t.Fatalf("frame %d: Read consumed trailing bytes", i)
		}
	}
}

func assertFrameEq(t *testing.T, want, got *Frame) {
	t.Helper()
	if got.Magic != want.Magic || got.Opcode != want.Opcode ||
		got.Datatype != want.Datatype || got.Opaque != want.Opaque ||
		got.CAS != want.CAS {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	if want.Magic == MagicRes {
		if got.Status != want.Status {
			t.Fatalf("status: got %v want %v", got.Status, want.Status)
		}
	} else if got.VBucket != want.VBucket {
		t.Fatalf("vbucket: got %d want %d", got.VBucket, want.VBucket)
	}
	if !bytes.Equal(got.Extras, want.Extras) ||
		!bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) {
		t.Fatalf("body mismatch: got %+v want %+v", got, want)
	}
}

func TestDecodeErrors(t *testing.T) {
	ok, _ := (&Frame{Magic: MagicReq, Opcode: OpGet, Key: []byte("k")}).Encode()

	t.Run("short header", func(t *testing.T) {
		if _, _, err := Decode(ok[:HeaderLen-1]); err != ErrShortFrame {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("torn body", func(t *testing.T) {
		if _, _, err := Decode(ok[:len(ok)-1]); err != ErrShortFrame {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), ok...)
		b[0] = 0x13
		if _, _, err := Decode(b); err != ErrBadMagic {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("oversized body claim", func(t *testing.T) {
		b := append([]byte(nil), ok...)
		b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff
		if _, _, err := Decode(b); err != ErrFrameSize {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("key longer than body", func(t *testing.T) {
		b := append([]byte(nil), ok...)
		b[2], b[3] = 0x00, 0x09 // keylen 9 > bodylen 1
		if _, _, err := Decode(b); err != ErrBadLengths {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("oversized key claim", func(t *testing.T) {
		b := append([]byte(nil), ok...)
		b[2], b[3] = 0xff, 0xff
		if _, _, err := Decode(b); err != ErrFrameSize {
			t.Fatalf("got %v", err)
		}
	})
}

func TestEncodeRejectsOversize(t *testing.T) {
	f := &Frame{Magic: MagicReq, Opcode: OpSet, Key: make([]byte, MaxKeyLen+1)}
	if _, err := f.Encode(); err != ErrFrameSize {
		t.Fatalf("oversized key: got %v", err)
	}
	f = &Frame{Magic: 0x01, Opcode: OpSet}
	if _, err := f.Encode(); err != ErrBadMagic {
		t.Fatalf("bad magic: got %v", err)
	}
	f = &Frame{Magic: MagicReq, Opcode: OpSet, Extras: make([]byte, 300)}
	if _, err := f.Encode(); err != ErrFrameSize {
		t.Fatalf("oversized extras: got %v", err)
	}
}

func TestReadErrors(t *testing.T) {
	t.Run("clean eof", func(t *testing.T) {
		if _, err := Read(strings.NewReader("")); err != io.EOF {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("torn header", func(t *testing.T) {
		if _, err := Read(strings.NewReader("abc")); err != io.ErrUnexpectedEOF {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("torn body", func(t *testing.T) {
		wire, _ := (&Frame{Magic: MagicReq, Opcode: OpGet, Key: []byte("key")}).Encode()
		if _, err := Read(bytes.NewReader(wire[:len(wire)-2])); err != io.ErrUnexpectedEOF {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("hostile body claim rejected before alloc", func(t *testing.T) {
		var h [HeaderLen]byte
		h[0] = MagicReq
		h[8], h[9], h[10], h[11] = 0x7f, 0xff, 0xff, 0xff
		if _, err := Read(bytes.NewReader(h[:])); err != ErrFrameSize {
			t.Fatalf("got %v", err)
		}
	})
}

func TestDecodeAliasesInput(t *testing.T) {
	wire, _ := (&Frame{Magic: MagicReq, Opcode: OpSet, Key: []byte("k"), Value: []byte("vvv")}).Encode()
	f, _, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	wire[HeaderLen] = 'X' // first key byte
	if f.Key[0] != 'X' {
		t.Fatal("Decode copied the body; expected aliasing")
	}
}

func TestNames(t *testing.T) {
	if OpDCPStreamReq.String() != "dcp_stream_req" {
		t.Fatalf("opcode name: %s", OpDCPStreamReq)
	}
	if Opcode(0xfe).Known() || !OpGet.Known() {
		t.Fatal("Known misclassifies")
	}
	if StatusNotMyVBucket.String() != "not_my_vbucket" {
		t.Fatalf("status name: %s", StatusNotMyVBucket)
	}
	if got := Status(0x7777).String(); got != "status_0x7777" {
		t.Fatalf("unknown status name: %s", got)
	}
}

func TestExtrasRoundTrip(t *testing.T) {
	me := MutateExtras{Flags: 0xa5a5a5a5, Expiry: -1, ReplicateTo: 2, Persist: true, TimeoutMillis: 777}
	got, err := DecodeMutateExtras(me.Encode())
	if err != nil || got != me {
		t.Fatalf("mutate extras: %+v %v", got, err)
	}
	if _, err := DecodeMutateExtras(nil); !errors.Is(err, ErrBadExtras) {
		t.Fatalf("short mutate extras: %v", err)
	}

	im := ItemMeta{Seqno: 10, RevSeqno: 4, Flags: 3, Expiry: 99, Deleted: true, Resident: true}
	got2, err := DecodeItemMeta(AppendItemMeta(nil, im))
	if err != nil || got2 != im {
		t.Fatalf("item meta: %+v %v", got2, err)
	}
	// AckWanted is the flags byte's bit 2: no layout change.
	wire := AppendItemMeta(nil, ItemMeta{Seqno: 7, AckWanted: true})
	if got, err := DecodeItemMeta(wire); len(wire) != itemMetaLen || wire[28] != 4 || err != nil || got != (ItemMeta{Seqno: 7, AckWanted: true}) {
		t.Fatalf("ack-wanted item meta: % x -> %+v %v", wire, got, err)
	}

	xe := XDCRExtras{RevSeqno: 8, Flags: 1, Expiry: 5, Deleted: true}
	got3, err := DecodeXDCRExtras(xe.Encode())
	if err != nil || got3 != xe {
		t.Fatalf("xdcr extras: %+v %v", got3, err)
	}

	sr := StreamReqExtras{UUID: 0xabc, FromSeqno: 17}
	got4, err := DecodeStreamReqExtras(sr.Encode())
	if err != nil || got4 != sr {
		t.Fatalf("stream req extras: %+v %v", got4, err)
	}

	ext := AppendEpoch(nil, 42)
	if e, ok := Epoch(ext); !ok || e != 42 {
		t.Fatalf("epoch: %d %v", e, ok)
	}
	if _, ok := Epoch(ext[:4]); ok {
		t.Fatal("short epoch accepted")
	}

	if v, ok := Uint64At(AppendUint64(nil, 7), 0); !ok || v != 7 {
		t.Fatalf("uint64: %d %v", v, ok)
	}
	if f, ok := Float64At(AppendFloat64(nil, 2.5), 0); !ok || f != 2.5 {
		t.Fatalf("float64: %g %v", f, ok)
	}

	extras, value := SubdocBody("a.b[0]", []byte(`{"x":1}`))
	path, payload, err := SplitSubdocBody(extras, value)
	if err != nil || path != "a.b[0]" || string(payload) != `{"x":1}` {
		t.Fatalf("subdoc: %q %q %v", path, payload, err)
	}
	if _, _, err := SplitSubdocBody(extras, value[:2]); !errors.Is(err, ErrBadLengths) {
		t.Fatalf("subdoc truncated value: %v", err)
	}
	if _, _, err := SplitSubdocBody(nil, value); !errors.Is(err, ErrBadExtras) {
		t.Fatalf("subdoc no extras: %v", err)
	}
}
