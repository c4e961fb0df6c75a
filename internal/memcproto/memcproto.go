// Package memcproto defines couchgo's binary KV wire protocol: a
// memcached-heritage framing (the paper's §4.1 smart clients "speak
// the memcached binary protocol directly to the node owning each
// partition"), extended with DCP stream messages so replication and
// feed consumers work across sockets, and with cluster-map admin
// opcodes so nodes and clients exchange topology.
//
// Every message is one frame: a fixed 24-byte header followed by
// extras, key, and value. The layout matches the classic memcached
// binary protocol so the field meanings are instantly recognizable:
//
//	offset  size  field
//	0       1     magic (0x80 request, 0x81 response, 0x82 server push)
//	1       1     opcode
//	2       2     key length
//	4       1     extras length
//	5       1     datatype (flag bits; bit 0 = trace context in extras)
//	6       2     vbucket id (request/push) or status (response)
//	8       4     total body length (extras + key + value)
//	12      4     opaque (echoed verbatim)
//	16      8     CAS
//
// The datatype byte, reserved (always 0) in earlier versions, is now a
// flag field. DatatypeTraceCtx (bit 0) marks that the LAST
// TraceContextLen bytes of the frame's extras are a distributed trace
// context (trace ID + parent span ID + sampled flag) injected by the
// smart client and adopted by the server session, so server-side spans
// join the client's trace. Frames from older peers carry datatype 0 and
// decode exactly as before; frames with the flag but truncated extras
// are rejected with ErrBadExtras before any field is used.
//
// Response extras always begin with the sender's 8-byte cluster-map
// epoch (the map revision), so every reply a smart client receives
// tells it whether its cached map is stale — the paper's "the cluster
// updates each connected client library with the new cluster map",
// piggybacked on the data path. A not-my-vbucket response additionally
// carries the full map JSON in its value (a "fat" NMVB, as in the real
// server), so the client refreshes without another round trip.
//
// The package is dependency-free (stdlib only) and allocation-bounded:
// Decode never allocates more than the input it was handed, and Read
// rejects frames whose claimed body exceeds MaxBodyLen before
// allocating anything.
package memcproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// HeaderLen is the fixed frame header size.
const HeaderLen = 24

// MaxBodyLen bounds extras+key+value; larger claims are rejected
// before allocation. 24 MiB comfortably exceeds the 20 MiB document
// cap of the real server.
const MaxBodyLen = 24 << 20

// MaxKeyLen bounds document keys (memcached's classic 250-byte limit
// is too tight for compound IDs; 4 KiB matches our REST layer).
const MaxKeyLen = 4096

// Frame magics.
const (
	MagicReq  = 0x80 // client -> server request
	MagicRes  = 0x81 // server -> client response (status set)
	MagicPush = 0x82 // server -> client unsolicited (DCP stream traffic)
)

// Datatype flag bits. The datatype header byte was reserved (always 0)
// until the trace-context extension; unknown bits are ignored so the
// field can grow.
const (
	// DatatypeTraceCtx marks that the last TraceContextLen bytes of
	// the frame's extras are a TraceContext.
	DatatypeTraceCtx = 0x01
)

// Opcode identifies the operation of a frame.
type Opcode uint8

// KV opcodes (client requests routed by vbucket). Each has a row in
// the op table (optable.go).
const (
	OpGet           Opcode = 0x00
	OpSet           Opcode = 0x01
	OpAdd           Opcode = 0x02
	OpReplace       Opcode = 0x03
	OpDelete        Opcode = 0x04
	OpTouch         Opcode = 0x05
	OpGetAndLock    Opcode = 0x06
	OpUnlock        Opcode = 0x07
	OpAppendVal     Opcode = 0x08
	OpPrependVal    Opcode = 0x09
	OpGetMeta       Opcode = 0x0a
	OpSubdocGet     Opcode = 0x10
	OpSubdocSet     Opcode = 0x11
	OpSubdocRemove  Opcode = 0x12
	OpSubdocArrAdd  Opcode = 0x13
	OpSubdocCounter Opcode = 0x14
	OpXDCRSet       Opcode = 0x18
)

// Admin opcodes (not vbucket-routed).
const (
	OpNoop          Opcode = 0x20
	OpHello         Opcode = 0x21
	OpGetClusterMap Opcode = 0x22
	OpSetClusterMap Opcode = 0x23
	OpJoin          Opcode = 0x24
	OpStats         Opcode = 0x25
	OpHeartbeat     Opcode = 0x26
	// OpFederate is the observability federation round trip: Key names
	// an observability domain ("metrics", "health", "events", "trace",
	// "trace-config"), Value carries a JSON request payload, and the
	// response value is the queried node's JSON payload. Any node can
	// aggregate the whole cluster's view over its existing KV conns.
	OpFederate Opcode = 0x27
)

// DCP opcodes. A stream request converts the connection into push mode
// for that stream: the server sends OpDCPMutation/OpDCPStreamEnd push
// frames with the stream request's opaque, and the consumer may send
// OpDCPAck frames back to acknowledge applied seqnos (replica
// durability).
const (
	OpDCPStreamReq   Opcode = 0x50
	OpDCPMutation    Opcode = 0x51
	OpDCPSnapshot    Opcode = 0x52
	OpDCPStreamEnd   Opcode = 0x53
	OpDCPFailoverLog Opcode = 0x54
	OpDCPAck         Opcode = 0x55
)

// opcodeNames names the admin and DCP opcodes; KV opcodes are named by
// their op-table row (optable.go).
var opcodeNames = map[Opcode]string{
	OpNoop: "noop", OpHello: "hello", OpGetClusterMap: "get_cluster_map",
	OpSetClusterMap: "set_cluster_map", OpJoin: "join", OpStats: "stats",
	OpHeartbeat: "heartbeat", OpFederate: "federate",
	OpDCPStreamReq: "dcp_stream_req", OpDCPMutation: "dcp_mutation",
	OpDCPSnapshot: "dcp_snapshot", OpDCPStreamEnd: "dcp_stream_end",
	OpDCPFailoverLog: "dcp_failover_log", OpDCPAck: "dcp_ack",
}

// String names the opcode for metrics labels and logs.
func (o Opcode) String() string {
	if s := SpecOf(o); s != nil {
		return s.Name
	}
	if n, ok := opcodeNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op_0x%02x", uint8(o))
}

// Known reports whether the opcode is part of the protocol table.
func (o Opcode) Known() bool { _, ok := opcodeNames[o]; return ok || SpecOf(o) != nil }

// Status is the response outcome, carried where requests carry the
// vbucket ID.
type Status uint16

// Response statuses.
const (
	StatusOK                Status = 0x0000
	StatusKeyNotFound       Status = 0x0001
	StatusKeyExists         Status = 0x0002
	StatusCASMismatch       Status = 0x0003
	StatusLocked            Status = 0x0004
	StatusNotMyVBucket      Status = 0x0007
	StatusNoSuchBucket      Status = 0x0008
	StatusDurabilityTimeout Status = 0x0009
	StatusSubdocPath        Status = 0x000a
	StatusRollback          Status = 0x0023
	StatusBadRequest        Status = 0x0084
	StatusNotSupported      Status = 0x0083
	StatusTmpFail           Status = 0x0086
	StatusInternal          Status = 0x0085
)

var statusNames = map[Status]string{
	StatusOK: "ok", StatusKeyNotFound: "key_not_found",
	StatusKeyExists: "key_exists", StatusCASMismatch: "cas_mismatch",
	StatusLocked: "locked", StatusNotMyVBucket: "not_my_vbucket",
	StatusNoSuchBucket:      "no_such_bucket",
	StatusDurabilityTimeout: "durability_timeout",
	StatusSubdocPath:        "subdoc_path", StatusRollback: "rollback",
	StatusBadRequest: "bad_request", StatusNotSupported: "not_supported",
	StatusTmpFail: "tmp_fail", StatusInternal: "internal",
}

// String names the status.
func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("status_0x%04x", uint16(s))
}

// Framing errors.
var (
	ErrShortFrame = errors.New("memcproto: short frame")
	ErrBadMagic   = errors.New("memcproto: bad magic")
	ErrFrameSize  = errors.New("memcproto: frame exceeds size limits")
	ErrBadLengths = errors.New("memcproto: inconsistent body lengths")
)

// Frame is one decoded protocol message. VBucket is meaningful on
// requests and pushes; Status on responses (they share header bytes
// 6-7, exactly as in memcached).
type Frame struct {
	Magic    byte
	Opcode   Opcode
	Datatype byte
	VBucket  uint16
	Status   Status
	Opaque   uint32
	CAS      uint64

	Extras []byte
	Key    []byte
	Value  []byte
}

// BodyLen returns extras+key+value length.
func (f *Frame) BodyLen() int { return len(f.Extras) + len(f.Key) + len(f.Value) }

// validate checks the frame's fields fit the wire encoding.
func (f *Frame) validate() error {
	if f.Magic != MagicReq && f.Magic != MagicRes && f.Magic != MagicPush {
		return ErrBadMagic
	}
	if len(f.Key) > MaxKeyLen || len(f.Extras) > 0xff {
		return ErrFrameSize
	}
	if f.BodyLen() > MaxBodyLen {
		return ErrFrameSize
	}
	return nil
}

// Append encodes the frame onto dst and returns the extended slice.
func (f *Frame) Append(dst []byte) ([]byte, error) {
	if err := f.validate(); err != nil {
		return dst, err
	}
	var h [HeaderLen]byte
	h[0] = f.Magic
	h[1] = byte(f.Opcode)
	binary.BigEndian.PutUint16(h[2:4], uint16(len(f.Key)))
	h[4] = byte(len(f.Extras))
	h[5] = f.Datatype
	if f.Magic == MagicRes {
		binary.BigEndian.PutUint16(h[6:8], uint16(f.Status))
	} else {
		binary.BigEndian.PutUint16(h[6:8], f.VBucket)
	}
	binary.BigEndian.PutUint32(h[8:12], uint32(f.BodyLen()))
	binary.BigEndian.PutUint32(h[12:16], f.Opaque)
	binary.BigEndian.PutUint64(h[16:24], f.CAS)
	dst = append(dst, h[:]...)
	dst = append(dst, f.Extras...)
	dst = append(dst, f.Key...)
	dst = append(dst, f.Value...)
	return dst, nil
}

// Encode returns the frame's wire bytes.
func (f *Frame) Encode() ([]byte, error) { return f.Append(nil) }

// WriteTo writes the encoded frame to w.
func (f *Frame) WriteTo(w io.Writer) (int64, error) {
	b, err := f.Encode()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// Decode parses one frame from the start of b, returning the frame and
// the number of bytes consumed. The returned frame's Extras/Key/Value
// alias b — Decode never allocates body storage, so a hostile header
// cannot make it over-allocate. An incomplete or inconsistent prefix
// returns an error (ErrShortFrame when more bytes may complete it).
func Decode(b []byte) (*Frame, int, error) {
	if len(b) < HeaderLen {
		return nil, 0, ErrShortFrame
	}
	magic := b[0]
	if magic != MagicReq && magic != MagicRes && magic != MagicPush {
		return nil, 0, ErrBadMagic
	}
	keyLen := int(binary.BigEndian.Uint16(b[2:4]))
	extLen := int(b[4])
	bodyLen := int(binary.BigEndian.Uint32(b[8:12]))
	if bodyLen > MaxBodyLen || keyLen > MaxKeyLen {
		return nil, 0, ErrFrameSize
	}
	if extLen+keyLen > bodyLen {
		return nil, 0, ErrBadLengths
	}
	total := HeaderLen + bodyLen
	if len(b) < total {
		return nil, 0, ErrShortFrame
	}
	f := &Frame{
		Magic:    magic,
		Opcode:   Opcode(b[1]),
		Datatype: b[5],
		Opaque:   binary.BigEndian.Uint32(b[12:16]),
		CAS:      binary.BigEndian.Uint64(b[16:24]),
	}
	if magic == MagicRes {
		f.Status = Status(binary.BigEndian.Uint16(b[6:8]))
	} else {
		f.VBucket = binary.BigEndian.Uint16(b[6:8])
	}
	body := b[HeaderLen:total]
	if extLen > 0 {
		f.Extras = body[:extLen:extLen]
	}
	if keyLen > 0 {
		f.Key = body[extLen : extLen+keyLen : extLen+keyLen]
	}
	if v := body[extLen+keyLen:]; len(v) > 0 {
		f.Value = v
	}
	return f, total, nil
}

// Read reads exactly one frame from r. The body is validated against
// MaxBodyLen before any body allocation, so a torn or hostile header
// cannot balloon memory; a clean EOF before the first header byte
// returns io.EOF, a torn header or body returns io.ErrUnexpectedEOF.
func Read(r io.Reader) (*Frame, error) {
	var h [HeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, err
	}
	bodyLen := int(binary.BigEndian.Uint32(h[8:12]))
	keyLen := int(binary.BigEndian.Uint16(h[2:4]))
	if bodyLen > MaxBodyLen || keyLen > MaxKeyLen {
		return nil, ErrFrameSize
	}
	if int(h[4])+keyLen > bodyLen {
		return nil, ErrBadLengths
	}
	buf := make([]byte, HeaderLen+bodyLen)
	copy(buf, h[:])
	if _, err := io.ReadFull(r, buf[HeaderLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	f, _, err := Decode(buf)
	return f, err
}
