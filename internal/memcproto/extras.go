package memcproto

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrBadExtras reports extras too short for the opcode's layout.
var ErrBadExtras = errors.New("memcproto: bad extras")

// EpochLen is the size of the cluster-map epoch prefix every response's
// extras carry.
const EpochLen = 8

// AppendEpoch prepends nothing — it appends the 8-byte map epoch that
// must be the first extras field of every response.
func AppendEpoch(dst []byte, epoch int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(epoch))
	return append(dst, b[:]...)
}

// Epoch reads a response's map-epoch prefix.
func Epoch(extras []byte) (int64, bool) {
	if len(extras) < EpochLen {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(extras[:EpochLen])), true
}

// TraceContext is the distributed-trace propagation field: the caller's
// trace ID, the span the remote work should hang under, and whether the
// trace is sampled. It rides the TAIL of a frame's extras (requests and
// DCP mutation pushes), announced by the DatatypeTraceCtx header flag,
// so every opcode's existing extras layout keeps its offsets and old
// peers that never set the flag interoperate unchanged.
type TraceContext struct {
	TraceID uint64
	// SpanID is the index of the parent span within the originating
	// node's portion of the trace (the root span is 0).
	SpanID  uint32
	Sampled bool
}

// TraceContextLen is the encoded size of a TraceContext.
const TraceContextLen = 8 + 4 + 1

// Valid reports whether the context names a real trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// AppendTraceContext appends the wire form to extras. The caller must
// also set DatatypeTraceCtx on the frame, and must append it last —
// the decoder takes it from the extras tail.
func AppendTraceContext(extras []byte, tc TraceContext) []byte {
	var b [TraceContextLen]byte
	binary.BigEndian.PutUint64(b[0:8], tc.TraceID)
	binary.BigEndian.PutUint32(b[8:12], tc.SpanID)
	if tc.Sampled {
		b[12] = 1
	}
	return append(extras, b[:]...)
}

// SplitTraceContext strips a frame's trace context, if any, returning
// it and the remaining (opcode-specific) extras. Frames without the
// DatatypeTraceCtx flag pass through untouched — old-frame decoding is
// unaffected. A flagged frame whose extras are too short to hold the
// context is rejected with ErrBadExtras before any field is consumed;
// nothing here allocates, so hostile lengths cost nothing.
func SplitTraceContext(f *Frame) (TraceContext, []byte, error) {
	if f.Datatype&DatatypeTraceCtx == 0 {
		return TraceContext{}, f.Extras, nil
	}
	n := len(f.Extras) - TraceContextLen
	if n < 0 {
		return TraceContext{}, nil, ErrBadExtras
	}
	tail := f.Extras[n:]
	return TraceContext{
		TraceID: binary.BigEndian.Uint64(tail[0:8]),
		SpanID:  binary.BigEndian.Uint32(tail[8:12]),
		Sampled: tail[12] != 0,
	}, f.Extras[:n], nil
}

// MutateExtras is the request extras of SET/ADD/REPLACE/APPEND/PREPEND:
// document flags, expiry, and the per-mutation durability options of
// §2.3.2 (the server performs the replication/persistence wait before
// acknowledging). DELETE sends the same layout with Flags/Expiry zero.
type MutateExtras struct {
	Flags       uint32
	Expiry      int64
	ReplicateTo uint8
	Persist     bool
	// TimeoutMillis bounds the durability wait; 0 means the server
	// default (10s).
	TimeoutMillis uint32
}

const mutateExtrasLen = 4 + 8 + 1 + 1 + 4

// Encode returns the wire form.
func (e MutateExtras) Encode() []byte {
	b := make([]byte, mutateExtrasLen)
	binary.BigEndian.PutUint32(b[0:4], e.Flags)
	binary.BigEndian.PutUint64(b[4:12], uint64(e.Expiry))
	b[12] = e.ReplicateTo
	if e.Persist {
		b[13] = 1
	}
	binary.BigEndian.PutUint32(b[14:18], e.TimeoutMillis)
	return b
}

// DecodeMutateExtras parses the wire form.
func DecodeMutateExtras(b []byte) (MutateExtras, error) {
	if len(b) < mutateExtrasLen {
		return MutateExtras{}, ErrBadExtras
	}
	return MutateExtras{
		Flags:         binary.BigEndian.Uint32(b[0:4]),
		Expiry:        int64(binary.BigEndian.Uint64(b[4:12])),
		ReplicateTo:   b[12],
		Persist:       b[13] != 0,
		TimeoutMillis: binary.BigEndian.Uint32(b[14:18]),
	}, nil
}

// ItemMeta is the document metadata riding response extras (after the
// epoch) and DCP mutation push extras: everything a client or replica
// needs to reconstruct a cache.Item besides key, value, and the CAS
// already carried in the header.
type ItemMeta struct {
	Seqno     uint64
	RevSeqno  uint64
	Flags     uint32
	Expiry    int64
	Deleted   bool
	Resident  bool
	AckWanted bool // on a DCP push: somebody waits on its replication, ack it
}

const itemMetaLen = 8 + 8 + 4 + 8 + 1

// AppendItemMeta appends the wire form to dst.
func AppendItemMeta(dst []byte, m ItemMeta) []byte {
	var b [itemMetaLen]byte
	binary.BigEndian.PutUint64(b[0:8], m.Seqno)
	binary.BigEndian.PutUint64(b[8:16], m.RevSeqno)
	binary.BigEndian.PutUint32(b[16:20], m.Flags)
	binary.BigEndian.PutUint64(b[20:28], uint64(m.Expiry))
	var bits byte
	if m.Deleted {
		bits |= 1
	}
	if m.Resident {
		bits |= 2
	}
	if m.AckWanted {
		bits |= 4
	}
	b[28] = bits
	return append(dst, b[:]...)
}

// DecodeItemMeta parses the wire form.
func DecodeItemMeta(b []byte) (ItemMeta, error) {
	if len(b) < itemMetaLen {
		return ItemMeta{}, ErrBadExtras
	}
	return ItemMeta{
		Seqno:     binary.BigEndian.Uint64(b[0:8]),
		RevSeqno:  binary.BigEndian.Uint64(b[8:16]),
		Flags:     binary.BigEndian.Uint32(b[16:20]),
		Expiry:    int64(binary.BigEndian.Uint64(b[20:28])),
		Deleted:   b[28]&1 != 0,
		Resident:  b[28]&2 != 0,
		AckWanted: b[28]&4 != 0,
	}, nil
}

// XDCRExtras carries a cross-cluster mutation's metadata for the
// §4.6.1 conflict-resolution rule on the receiving side (the CAS rides
// the header's CAS field).
type XDCRExtras struct {
	RevSeqno uint64
	Flags    uint32
	Expiry   int64
	Deleted  bool
}

const xdcrExtrasLen = 8 + 4 + 8 + 1

// Encode returns the wire form.
func (e XDCRExtras) Encode() []byte {
	b := make([]byte, xdcrExtrasLen)
	binary.BigEndian.PutUint64(b[0:8], e.RevSeqno)
	binary.BigEndian.PutUint32(b[8:12], e.Flags)
	binary.BigEndian.PutUint64(b[12:20], uint64(e.Expiry))
	if e.Deleted {
		b[20] = 1
	}
	return b
}

// DecodeXDCRExtras parses the wire form.
func DecodeXDCRExtras(b []byte) (XDCRExtras, error) {
	if len(b) < xdcrExtrasLen {
		return XDCRExtras{}, ErrBadExtras
	}
	return XDCRExtras{
		RevSeqno: binary.BigEndian.Uint64(b[0:8]),
		Flags:    binary.BigEndian.Uint32(b[8:12]),
		Expiry:   int64(binary.BigEndian.Uint64(b[12:20])),
		Deleted:  b[20] != 0,
	}, nil
}

// AppendUint64 / Uint64At are the tiny helpers the single-field extras
// use: TOUCH and GETANDLOCK carry one 8-byte expiry/lock duration,
// DCPACK one acked seqno, SUBDOC_COUNTER one float64 delta.
func AppendUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// Uint64At reads the 8-byte big-endian field starting at off.
func Uint64At(b []byte, off int) (uint64, bool) {
	if len(b) < off+8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(b[off : off+8]), true
}

// AppendFloat64 appends a float64's IEEE-754 bits.
func AppendFloat64(dst []byte, v float64) []byte {
	return AppendUint64(dst, math.Float64bits(v))
}

// Float64At reads a float64 encoded by AppendFloat64.
func Float64At(b []byte, off int) (float64, bool) {
	u, ok := Uint64At(b, off)
	return math.Float64frombits(u), ok
}

// StreamReqExtras is the DCP stream request position: the (vBucket
// UUID, seqno) pair the consumer recorded, exactly the resume
// handshake of the in-process feed layer.
type StreamReqExtras struct {
	UUID      uint64
	FromSeqno uint64
}

const streamReqExtrasLen = 16

// Encode returns the wire form.
func (e StreamReqExtras) Encode() []byte {
	b := make([]byte, streamReqExtrasLen)
	binary.BigEndian.PutUint64(b[0:8], e.UUID)
	binary.BigEndian.PutUint64(b[8:16], e.FromSeqno)
	return b
}

// DecodeStreamReqExtras parses the wire form.
func DecodeStreamReqExtras(b []byte) (StreamReqExtras, error) {
	if len(b) < streamReqExtrasLen {
		return StreamReqExtras{}, ErrBadExtras
	}
	return StreamReqExtras{
		UUID:      binary.BigEndian.Uint64(b[0:8]),
		FromSeqno: binary.BigEndian.Uint64(b[8:16]),
	}, nil
}

// SubdocBody encodes a subdoc request's value: the path followed by an
// optional JSON payload, with the path length in the 2-byte extras.
func SubdocBody(path string, payload []byte) (extras, value []byte) {
	extras = make([]byte, 2)
	binary.BigEndian.PutUint16(extras, uint16(len(path)))
	value = make([]byte, 0, len(path)+len(payload))
	value = append(value, path...)
	value = append(value, payload...)
	return extras, value
}

// SplitSubdocBody reverses SubdocBody.
func SplitSubdocBody(extras, value []byte) (path string, payload []byte, err error) {
	if len(extras) < 2 {
		return "", nil, ErrBadExtras
	}
	n := int(binary.BigEndian.Uint16(extras[:2]))
	if n > len(value) {
		return "", nil, ErrBadLengths
	}
	return string(value[:n]), value[n:], nil
}
