package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/memcproto"
	"couchgo/internal/trace"
	"couchgo/internal/vbucket"
)

// statusTable maps canonical storage errors to wire statuses and back.
// The client reconstructs the same sentinel error the loopback conn
// would have returned, so callers' errors.Is checks behave identically
// on both transports.
var statusTable = []struct {
	status memcproto.Status
	err    error
}{
	{memcproto.StatusKeyNotFound, cache.ErrKeyNotFound},
	{memcproto.StatusKeyExists, cache.ErrKeyExists},
	{memcproto.StatusCASMismatch, cache.ErrCASMismatch},
	{memcproto.StatusLocked, cache.ErrLocked},
	{memcproto.StatusNotMyVBucket, vbucket.ErrNotMyVBucket},
	{memcproto.StatusNoSuchBucket, core.ErrNoSuchBucket},
	{memcproto.StatusDurabilityTimeout, vbucket.ErrTimeout},
	{memcproto.StatusSubdocPath, cache.ErrPathNotFound},
}

// statusOf picks the wire status for a server-side error.
func statusOf(err error) memcproto.Status {
	for _, e := range statusTable {
		if errors.Is(err, e.err) {
			return e.status
		}
	}
	switch {
	case errors.Is(err, cache.ErrNotLocked), errors.Is(err, cache.ErrNotJSON),
		errors.Is(err, memcproto.ErrBadExtras), errors.Is(err, memcproto.ErrBadLengths):
		return memcproto.StatusBadRequest
	case errors.Is(err, core.ErrNodeDown):
		return memcproto.StatusTmpFail
	}
	return memcproto.StatusInternal
}

// errOf reconstructs the client-side error for a non-OK status. The
// server's message rides the value; sentinel statuses wrap the
// canonical error so errors.Is works across the wire.
func errOf(status memcproto.Status, msg []byte) error {
	for _, e := range statusTable {
		if status == e.status {
			if len(msg) > 0 {
				return fmt.Errorf("%s: %w", msg, e.err)
			}
			return e.err
		}
	}
	if status == memcproto.StatusTmpFail {
		return fmt.Errorf("%s: %w", msg, core.ErrNodeDown)
	}
	return fmt.Errorf("transport: %s: %s", status, msg)
}

// encodeRequest lays op out as the request frame its table row
// describes: the row's extras layout, then the caller's trace context
// if ctx carries a sampled span.
func encodeRequest(ctx context.Context, spec *memcproto.OpSpec, vbID int, op core.Op) (*memcproto.Frame, error) {
	extras := make([]byte, 0, spec.Extras.Len()+memcproto.TraceContextLen)
	value := op.Value
	if spec.Extras != memcproto.LayoutXDCR {
		extras = memcproto.AppendUint64(extras, uint64(op.Now))
	}
	switch spec.Extras {
	case memcproto.LayoutNowMutate:
		me := memcproto.MutateExtras{
			Flags:       op.Flags,
			Expiry:      op.Expiry,
			ReplicateTo: uint8(max(op.Dur.ReplicateTo, 0)),
			Persist:     op.Dur.PersistTo,
		}
		if op.Dur.Timeout > 0 {
			me.TimeoutMillis = uint32(op.Dur.Timeout.Milliseconds())
		}
		extras = append(extras, me.Encode()...)
	case memcproto.LayoutNowU64:
		extras = memcproto.AppendUint64(extras, uint64(op.Expiry))
	case memcproto.LayoutNowSubdoc, memcproto.LayoutNowSubdocDoc, memcproto.LayoutNowSubdocDelta:
		var payload []byte
		if spec.Extras == memcproto.LayoutNowSubdocDoc {
			var err error
			if payload, err = json.Marshal(op.Doc); err != nil {
				return nil, err
			}
		}
		var se []byte
		se, value = memcproto.SubdocBody(op.Path, payload)
		extras = append(extras, se...)
		if spec.Extras == memcproto.LayoutNowSubdocDelta {
			extras = memcproto.AppendFloat64(extras, op.Delta)
		}
	case memcproto.LayoutXDCR:
		xe := memcproto.XDCRExtras{RevSeqno: op.RevSeqno, Flags: op.Flags, Expiry: op.Expiry, Deleted: op.Deleted}
		extras = append(extras, xe.Encode()...)
	}
	extras, datatype := injectTraceCtx(extras, ctx)
	return &memcproto.Frame{
		Magic:    memcproto.MagicReq,
		Opcode:   op.Code,
		Datatype: datatype,
		VBucket:  uint16(vbID),
		CAS:      op.CAS,
		Extras:   extras,
		Key:      []byte(op.Key),
		Value:    value,
	}, nil
}

// decodeRequest is encodeRequest's inverse on the server: extras is
// the frame's extras less any trace context. Extras shorter than the
// row's layout are ErrBadExtras — no field is ever read as a silent
// zero. Values are copied out of the frame buffer, which the cache
// must not pin.
func decodeRequest(spec *memcproto.OpSpec, f *memcproto.Frame, extras []byte) (core.Op, error) {
	op := core.Op{Code: f.Opcode, Key: string(f.Key), CAS: f.CAS}
	if len(extras) < spec.Extras.Len() {
		return op, memcproto.ErrBadExtras
	}
	if spec.Extras != memcproto.LayoutXDCR {
		now, _ := memcproto.Uint64At(extras, 0)
		op.Now = int64(now)
		extras = extras[8:]
	}
	switch spec.Extras {
	case memcproto.LayoutNow:
		op.Value = copyBytes(f.Value)
	case memcproto.LayoutNowMutate:
		me, _ := memcproto.DecodeMutateExtras(extras)
		op.Flags, op.Expiry = me.Flags, me.Expiry
		op.Dur = core.DurabilityOptions{
			ReplicateTo: int(me.ReplicateTo),
			PersistTo:   me.Persist,
			Timeout:     time.Duration(me.TimeoutMillis) * time.Millisecond,
		}
		op.Value = copyBytes(f.Value)
	case memcproto.LayoutNowU64:
		v, _ := memcproto.Uint64At(extras, 0)
		op.Expiry = int64(v)
	case memcproto.LayoutNowSubdoc, memcproto.LayoutNowSubdocDoc, memcproto.LayoutNowSubdocDelta:
		path, payload, err := memcproto.SplitSubdocBody(extras, f.Value)
		if err != nil {
			return op, err
		}
		op.Path = path
		if spec.Extras == memcproto.LayoutNowSubdocDoc {
			if err := json.Unmarshal(payload, &op.Doc); err != nil {
				return op, err
			}
		}
		if spec.Extras == memcproto.LayoutNowSubdocDelta {
			op.Delta, _ = memcproto.Float64At(extras, 2)
		}
	case memcproto.LayoutXDCR:
		xe, _ := memcproto.DecodeXDCRExtras(extras)
		op.RevSeqno, op.Flags, op.Expiry, op.Deleted = xe.RevSeqno, xe.Flags, xe.Expiry, xe.Deleted
		op.Value = copyBytes(f.Value)
	}
	return op, nil
}

// encodeResult lays res out as the OK response the row's shape
// describes: extras (always epoch-first), value and header CAS.
func encodeResult(shape memcproto.Shape, res core.Result, epoch int64) (extras, value []byte, cas uint64, err error) {
	extras = memcproto.AppendEpoch(nil, epoch)
	switch shape {
	case memcproto.ShapeItem:
		extras = memcproto.AppendItemMeta(extras, itemMetaOf(res.Item))
		value, cas = res.Item.Value, res.Item.CAS
	case memcproto.ShapeJSON:
		value, err = json.Marshal(res.Doc)
	case memcproto.ShapeBool:
		value = []byte{0}
		if res.Applied {
			value[0] = 1
		}
	}
	return extras, value, cas, err
}

// decodeResult is encodeResult's inverse on the client.
func decodeResult(shape memcproto.Shape, key string, f *memcproto.Frame) (core.Result, error) {
	var res core.Result
	var err error
	switch shape {
	case memcproto.ShapeItem:
		res.Item, err = itemFromFrame(key, f)
	case memcproto.ShapeJSON:
		err = json.Unmarshal(f.Value, &res.Doc)
	case memcproto.ShapeBool:
		res.Applied = len(f.Value) == 1 && f.Value[0] == 1
	}
	return res, err
}

func copyBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// itemMetaOf projects a cache.Item's metadata for response extras.
func itemMetaOf(it cache.Item) memcproto.ItemMeta {
	return memcproto.ItemMeta{
		Seqno:    it.Seqno,
		RevSeqno: it.RevSeqno,
		Flags:    it.Flags,
		Expiry:   it.Expiry,
		Deleted:  it.Deleted,
		Resident: it.Resident,
	}
}

// itemFromFrame rebuilds the cache.Item a loopback call would have
// returned, from a response frame's extras (epoch ‖ item meta), CAS
// header, and value.
func itemFromFrame(key string, f *memcproto.Frame) (cache.Item, error) {
	if len(f.Extras) < memcproto.EpochLen {
		return cache.Item{}, memcproto.ErrBadExtras
	}
	meta, err := memcproto.DecodeItemMeta(f.Extras[memcproto.EpochLen:])
	if err != nil {
		return cache.Item{}, err
	}
	it := cache.Item{
		Key:      key,
		CAS:      f.CAS,
		Seqno:    meta.Seqno,
		RevSeqno: meta.RevSeqno,
		Flags:    meta.Flags,
		Expiry:   meta.Expiry,
		Deleted:  meta.Deleted,
		Resident: meta.Resident,
	}
	if len(f.Value) > 0 {
		// Alias, don't copy: a response frame read off the wire owns a
		// dedicated body buffer (memcproto.Read allocates one per frame)
		// and is demuxed to exactly one waiter, so the item can take the
		// value without a per-Get allocation and memcpy.
		it.Value = f.Value
	}
	return it, nil
}

// injectTraceCtx appends the caller's trace context (trace ID +
// parent span wire ID + sampled flag) to request extras when ctx
// carries a sampled span, returning the extras and the datatype flag
// announcing the field. Requests outside a sampled trace add nothing
// and keep datatype 0, so the disabled path is wire-identical to
// older peers.
func injectTraceCtx(extras []byte, ctx context.Context) ([]byte, byte) {
	traceID, spanID, ok := trace.FromContext(ctx).WireContext()
	if !ok {
		return extras, 0
	}
	tc := memcproto.TraceContext{TraceID: traceID, SpanID: spanID, Sampled: true}
	return memcproto.AppendTraceContext(extras, tc), memcproto.DatatypeTraceCtx
}

// decodeMap parses a fat not-my-vbucket value (or cluster-map
// response) into a map.
func decodeMap(value []byte) (*cmap.Map, error) {
	var m cmap.Map
	if err := json.Unmarshal(value, &m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
