package memcproto

import "strings"

// Layout names what a KV request's extras (and, for subdoc ops, its
// value) carry. Every layout but LayoutXDCR starts with an 8-byte
// unix-seconds clock that expiry and lock arithmetic follow; 0, what a
// client sends, means the serving node's clock.
type Layout uint8

const (
	LayoutNow            Layout = iota // now(8)
	LayoutNowMutate                    // now(8) ‖ MutateExtras(18)
	LayoutNowU64                       // now(8) ‖ u64(8): TOUCH expiry, GETANDLOCK lock seconds
	LayoutNowSubdoc                    // now(8) ‖ pathlen(2); value = path
	LayoutNowSubdocDoc                 // now(8) ‖ pathlen(2); value = path ‖ JSON payload
	LayoutNowSubdocDelta               // now(8) ‖ pathlen(2) ‖ float64 delta(8); value = path
	LayoutXDCR                         // XDCRExtras(21)
)

var layouts = [...]struct {
	name string
	size int
}{
	LayoutNow:            {"now", 8},
	LayoutNowMutate:      {"now‖mutate", 8 + mutateExtrasLen},
	LayoutNowU64:         {"now‖u64", 8 + 8},
	LayoutNowSubdoc:      {"now‖subdoc", 8 + 2},
	LayoutNowSubdocDoc:   {"now‖subdoc+json", 8 + 2},
	LayoutNowSubdocDelta: {"now‖subdoc‖delta", 8 + 2 + 8},
	LayoutXDCR:           {"xdcr", xdcrExtrasLen},
}

// Len is the layout's extras length; a request whose extras (less any
// trace context) are shorter is rejected with ErrBadExtras.
func (l Layout) Len() int { return layouts[l].size }

func (l Layout) String() string { return layouts[l].name }

// Shape names what a KV op's OK response carries after the epoch.
type Shape uint8

const (
	ShapeItem  Shape = iota // extras: epoch ‖ ItemMeta; header CAS; value = document
	ShapeEmpty              // extras: epoch
	ShapeJSON               // extras: epoch; value = JSON
	ShapeBool               // extras: epoch; value = one byte, 0 or 1
)

var shapeNames = [...]string{ShapeItem: "item", ShapeEmpty: "empty", ShapeJSON: "json", ShapeBool: "bool"}

func (s Shape) String() string { return shapeNames[s] }

// OpSpec is one row of the KV op table: everything about an op that
// is not its execution. The wire encoder and decoder, the server
// dispatcher, the executor's preamble (vbucket.Do), the client's root
// span and the per-opcode histogram all read it, so adding an op is one
// row plus one executor arm.
type OpSpec struct {
	Code Opcode
	// Name is Opcode.String(): the histogram's opcode label and the
	// stem of both span names.
	Name   string
	Extras Layout
	Resp   Shape
	// Durable marks the ops whose mutate extras carry a durability
	// requirement the executor honours — the only ops that may block.
	Durable bool
	// AnyState marks the op a vBucket copy answers in any state; every
	// other op needs the active copy.
	AnyState bool
	// KVSpan is the client root span, "kv:" + Name with '_' → ':'
	// unless the row spells it; CacheSpan is the executor's span, the
	// same with "cache:"; ServerSpan is "server:" + Name.
	KVSpan, CacheSpan, ServerSpan string
}

// kvOps is the KV op table. KV opcodes occupy [0, kvOpcodeEnd).
var kvOps = []OpSpec{
	{Code: OpGet, Name: "get", Extras: LayoutNow, Resp: ShapeItem},
	{Code: OpSet, Name: "set", Extras: LayoutNowMutate, Resp: ShapeItem, Durable: true},
	{Code: OpAdd, Name: "add", Extras: LayoutNowMutate, Resp: ShapeItem},
	{Code: OpReplace, Name: "replace", Extras: LayoutNowMutate, Resp: ShapeItem},
	{Code: OpDelete, Name: "delete", Extras: LayoutNowMutate, Resp: ShapeItem, Durable: true},
	{Code: OpTouch, Name: "touch", Extras: LayoutNowU64, Resp: ShapeEmpty},
	{Code: OpGetAndLock, Name: "getandlock", Extras: LayoutNowU64, Resp: ShapeItem},
	{Code: OpUnlock, Name: "unlock", Extras: LayoutNow, Resp: ShapeEmpty},
	{Code: OpAppendVal, Name: "append", Extras: LayoutNow, Resp: ShapeItem},
	{Code: OpPrependVal, Name: "prepend", Extras: LayoutNow, Resp: ShapeItem},
	{Code: OpGetMeta, Name: "getmeta", Extras: LayoutNow, Resp: ShapeItem, AnyState: true},
	{Code: OpSubdocGet, Name: "subdoc_get", Extras: LayoutNowSubdoc, Resp: ShapeJSON},
	{Code: OpSubdocSet, Name: "subdoc_set", Extras: LayoutNowSubdocDoc, Resp: ShapeItem},
	{Code: OpSubdocRemove, Name: "subdoc_remove", Extras: LayoutNowSubdoc, Resp: ShapeItem},
	{Code: OpSubdocArrAdd, Name: "subdoc_arrayappend", Extras: LayoutNowSubdocDoc, Resp: ShapeItem},
	{Code: OpSubdocCounter, Name: "subdoc_counter", Extras: LayoutNowSubdocDelta, Resp: ShapeJSON},
	{Code: OpXDCRSet, Name: "xdcr_set", Extras: LayoutXDCR, Resp: ShapeBool, KVSpan: "kv:xdcr"},
}

const kvOpcodeEnd = 0x20

var kvIndex [kvOpcodeEnd]*OpSpec

func init() {
	for i := range kvOps {
		s := &kvOps[i]
		if s.KVSpan == "" {
			s.KVSpan = "kv:" + strings.ReplaceAll(s.Name, "_", ":")
		}
		s.CacheSpan = "cache:" + strings.TrimPrefix(s.KVSpan, "kv:")
		s.ServerSpan = "server:" + s.Name
		kvIndex[s.Code] = s
	}
}

// KVOps returns the KV op table in opcode order.
func KVOps() []OpSpec { return kvOps }

// SpecOf returns op's table row, or nil when op is not a KV op.
func SpecOf(op Opcode) *OpSpec {
	if op >= kvOpcodeEnd {
		return nil
	}
	return kvIndex[op]
}
