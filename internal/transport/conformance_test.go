package transport

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/core"
	"couchgo/internal/memcproto"
	"couchgo/internal/vbucket"
)

// The conformance suite: every row of the KV op table, run once per
// NodeConn implementation (the loopback executor and the TCP conn in
// front of a server session), through the happy path and each error
// status the op can return. A transport passes when both columns are
// green; a new op is covered by adding its cases here, once.
//
// Every case also runs once per residency: with the document resident,
// with its value evicted before each step, and (on a FullEviction
// cluster) with the whole item evicted before each step. The expected
// results are the same: where a document lives is the executor's
// business, never the caller's.

const (
	confNow      = 1700000000
	confVB       = 0
	confAbsentVB = 900 // not hosted: every op must answer not-my-vbucket
)

type casMode int

const (
	casAsGiven casMode = iota
	casPrev            // the CAS the previous step returned
	casWrong           // a CAS the document never had
)

// confStep is one op of a case. prev is the previous step's result. A
// step's op runs at confNow unless it names its own Now, or sends now 0
// (wall), which the serving node reads as its own clock.
type confStep struct {
	op      core.Op
	cas     casMode
	wall    bool
	wantErr error
	check   func(t *testing.T, res, prev core.Result)
}

type confCase struct {
	name  string
	steps []confStep
}

func valueIs(want string) func(*testing.T, core.Result, core.Result) {
	return func(t *testing.T, res, _ core.Result) {
		t.Helper()
		if string(res.Item.Value) != want {
			t.Errorf("value = %q, want %q", res.Item.Value, want)
		}
	}
}

func docIs(want any) func(*testing.T, core.Result, core.Result) {
	return func(t *testing.T, res, _ core.Result) {
		t.Helper()
		if !reflect.DeepEqual(res.Doc, want) {
			t.Errorf("doc = %#v, want %#v", res.Doc, want)
		}
	}
}

func mutated(t *testing.T, res, prev core.Result) {
	t.Helper()
	if res.Item.CAS == 0 || res.Item.CAS == prev.Item.CAS || res.Item.Seqno <= prev.Item.Seqno {
		t.Errorf("mutation returned CAS %d seqno %d after CAS %d seqno %d",
			res.Item.CAS, res.Item.Seqno, prev.Item.CAS, prev.Item.Seqno)
	}
}

// anyErr matches any failure: ErrNotLocked and ErrNotJSON have no wire
// status of their own (both travel as bad_request), so only the
// loopback returns the sentinel itself.
var anyErr = errors.New("any error")

const confDoc = `{"n":3,"arr":[1]}`

var (
	doSet    = confStep{op: core.Op{Code: memcproto.OpSet, Value: []byte(confDoc), Flags: 5, Expiry: confNow + 500}}
	doSetRaw = confStep{op: core.Op{Code: memcproto.OpSet, Value: []byte("mid")}}
	doLock   = confStep{op: core.Op{Code: memcproto.OpGetAndLock, Expiry: 30}}
	doGet    = core.Op{Code: memcproto.OpGet}
	notFound = cache.ErrKeyNotFound
)

var conformance = map[memcproto.Opcode][]confCase{
	memcproto.OpGet: {
		{"hit", []confStep{doSet, {op: doGet, check: func(t *testing.T, res, prev core.Result) {
			valueIs(confDoc)(t, res, prev)
			if res.Item.CAS != prev.Item.CAS || res.Item.Flags != 5 || res.Item.Expiry != confNow+500 || !res.Item.Resident {
				t.Errorf("Get = %+v, want the Set's CAS %d, flags 5, expiry", res.Item, prev.Item.CAS)
			}
		}}}},
		{"miss", []confStep{{op: doGet, wantErr: notFound}}},
		{"expired", []confStep{doSet, {op: core.Op{Code: memcproto.OpGet, Now: confNow + 501}, wantErr: notFound}}},
		// doSet's expiry is long past on the wall clock, and 1<<40 far off.
		{"server_clock", []confStep{doSet, {op: doGet, wall: true, wantErr: notFound},
			{op: core.Op{Code: memcproto.OpSet, Value: []byte("v"), Expiry: 1 << 40}}, {op: doGet, wall: true, check: valueIs("v")}}},
	},
	memcproto.OpSet: {
		{"create", []confStep{{op: doSet.op, check: mutated}}},
		{"overwrite_with_cas", []confStep{doSet, {op: doSetRaw.op, cas: casPrev, check: mutated}}},
		{"cas_mismatch", []confStep{doSet, {op: doSetRaw.op, cas: casWrong, wantErr: cache.ErrCASMismatch}}},
		{"cas_on_absent", []confStep{{op: doSetRaw.op, cas: casWrong, wantErr: notFound}}},
		{"locked", []confStep{doSet, doLock, {op: doSetRaw.op, wantErr: cache.ErrLocked}}},
		{"lock_token_writes", []confStep{doSet, doLock, {op: doSetRaw.op, cas: casPrev, check: mutated}}},
	},
	memcproto.OpAdd: {
		{"create", []confStep{{op: core.Op{Code: memcproto.OpAdd, Value: []byte(`{}`)}, check: mutated},
			{op: doGet, check: valueIs(`{}`)}}},
		{"exists", []confStep{doSet, {op: core.Op{Code: memcproto.OpAdd, Value: []byte(`{}`)}, wantErr: cache.ErrKeyExists}}},
	},
	memcproto.OpReplace: {
		{"with_cas", []confStep{doSet, {op: core.Op{Code: memcproto.OpReplace, Value: []byte(`{}`)}, cas: casPrev, check: mutated},
			{op: doGet, check: valueIs(`{}`)}}},
		{"absent", []confStep{{op: core.Op{Code: memcproto.OpReplace, Value: []byte(`{}`)}, wantErr: notFound}}},
		{"cas_mismatch", []confStep{doSet, {op: core.Op{Code: memcproto.OpReplace, Value: []byte(`{}`)}, cas: casWrong, wantErr: cache.ErrCASMismatch}}},
	},
	memcproto.OpDelete: {
		{"tombstones", []confStep{doSet, {op: core.Op{Code: memcproto.OpDelete}, check: func(t *testing.T, res, prev core.Result) {
			if !res.Item.Deleted || res.Item.Seqno <= prev.Item.Seqno {
				t.Errorf("Delete = %+v, want a tombstone past seqno %d", res.Item, prev.Item.Seqno)
			}
		}}, {op: doGet, wantErr: notFound}}},
		{"absent", []confStep{{op: core.Op{Code: memcproto.OpDelete}, wantErr: notFound}}},
		{"cas_mismatch", []confStep{doSet, {op: core.Op{Code: memcproto.OpDelete}, cas: casWrong, wantErr: cache.ErrCASMismatch}}},
		{"locked", []confStep{doSet, doLock, {op: core.Op{Code: memcproto.OpDelete}, wantErr: cache.ErrLocked}}},
	},
	memcproto.OpTouch: {
		{"extends_ttl", []confStep{doSet, {op: core.Op{Code: memcproto.OpTouch, Expiry: confNow + 9000}},
			{op: core.Op{Code: memcproto.OpGet, Now: confNow + 501}, check: func(t *testing.T, res, _ core.Result) {
				if res.Item.Expiry != confNow+9000 {
					t.Errorf("expiry after Touch = %d, want %d", res.Item.Expiry, confNow+9000)
				}
			}}}},
		{"absent", []confStep{{op: core.Op{Code: memcproto.OpTouch, Expiry: confNow + 9000}, wantErr: notFound}}},
		{"locked", []confStep{doSet, doLock, {op: core.Op{Code: memcproto.OpTouch, Expiry: confNow + 9000}, wantErr: cache.ErrLocked}}},
	},
	memcproto.OpGetAndLock: {
		{"locks", []confStep{doSet, {op: doLock.op, check: func(t *testing.T, res, prev core.Result) {
			valueIs(confDoc)(t, res, prev)
			if res.Item.CAS == 0 || res.Item.CAS == prev.Item.CAS {
				t.Errorf("lock token %d must differ from the pre-lock CAS %d", res.Item.CAS, prev.Item.CAS)
			}
		}}}},
		{"lock_expires", []confStep{doSet, doLock, {op: core.Op{Code: memcproto.OpSet, Value: []byte(`{}`), Now: confNow + 31}, check: mutated}}},
		{"absent", []confStep{{op: doLock.op, wantErr: notFound}}},
		{"already_locked", []confStep{doSet, doLock, {op: doLock.op, wantErr: cache.ErrLocked}}},
		// Locked for 30 s from the wall clock, so at confNow too.
		{"server_clock", []confStep{doSetRaw, {op: doLock.op, wall: true},
			{op: doSetRaw.op, wall: true, wantErr: cache.ErrLocked}, {op: doSetRaw.op, wantErr: cache.ErrLocked}}},
	},
	memcproto.OpUnlock: {
		{"releases", []confStep{doSet, doLock, {op: core.Op{Code: memcproto.OpUnlock}, cas: casPrev},
			{op: doSetRaw.op, check: mutated}}},
		{"wrong_token", []confStep{doSet, doLock, {op: core.Op{Code: memcproto.OpUnlock}, cas: casWrong, wantErr: cache.ErrLocked}}},
		{"not_locked", []confStep{doSet, {op: core.Op{Code: memcproto.OpUnlock}, cas: casPrev, wantErr: anyErr}}},
		{"absent", []confStep{{op: core.Op{Code: memcproto.OpUnlock}, cas: casWrong, wantErr: notFound}}},
	},
	memcproto.OpAppendVal: {
		{"appends", []confStep{doSetRaw, {op: core.Op{Code: memcproto.OpAppendVal, Value: []byte("-end")}, check: mutated},
			{op: doGet, check: valueIs("mid-end")}}},
		{"absent", []confStep{{op: core.Op{Code: memcproto.OpAppendVal, Value: []byte("x")}, wantErr: notFound}}},
		{"cas_mismatch", []confStep{doSetRaw, {op: core.Op{Code: memcproto.OpAppendVal, Value: []byte("x")}, cas: casWrong, wantErr: cache.ErrCASMismatch}}},
	},
	memcproto.OpPrependVal: {
		{"prepends", []confStep{doSetRaw, {op: core.Op{Code: memcproto.OpPrependVal, Value: []byte("start-")}, check: mutated},
			{op: doGet, check: valueIs("start-mid")}}},
		{"absent", []confStep{{op: core.Op{Code: memcproto.OpPrependVal, Value: []byte("x")}, wantErr: notFound}}},
		{"locked", []confStep{doSetRaw, doLock, {op: core.Op{Code: memcproto.OpPrependVal, Value: []byte("x")}, wantErr: cache.ErrLocked}}},
	},
	memcproto.OpGetMeta: {
		{"live", []confStep{doSet, {op: core.Op{Code: memcproto.OpGetMeta}, check: func(t *testing.T, res, prev core.Result) {
			if res.Item.CAS != prev.Item.CAS || res.Item.Seqno != prev.Item.Seqno || res.Item.Deleted {
				t.Errorf("GetMeta = %+v, want the Set's CAS %d seqno %d", res.Item, prev.Item.CAS, prev.Item.Seqno)
			}
		}}}},
		{"sees_tombstone", []confStep{doSet, {op: core.Op{Code: memcproto.OpDelete}},
			{op: core.Op{Code: memcproto.OpGetMeta}, check: func(t *testing.T, res, prev core.Result) {
				if !res.Item.Deleted || res.Item.Seqno != prev.Item.Seqno {
					t.Errorf("GetMeta = %+v, want the tombstone at seqno %d", res.Item, prev.Item.Seqno)
				}
			}}}},
		{"absent", []confStep{{op: core.Op{Code: memcproto.OpGetMeta}, wantErr: notFound}}},
	},
	memcproto.OpSubdocGet: {
		{"scalar", []confStep{doSet, {op: core.Op{Code: memcproto.OpSubdocGet, Path: "n"}, check: docIs(3.0)}}},
		{"array", []confStep{doSet, {op: core.Op{Code: memcproto.OpSubdocGet, Path: "arr"}, check: docIs([]any{1.0})}}},
		{"absent", []confStep{{op: core.Op{Code: memcproto.OpSubdocGet, Path: "n"}, wantErr: notFound}}},
		{"no_such_path", []confStep{doSet, {op: core.Op{Code: memcproto.OpSubdocGet, Path: "nope"}, wantErr: cache.ErrPathNotFound}}},
		{"not_json", []confStep{doSetRaw, {op: core.Op{Code: memcproto.OpSubdocGet, Path: "n"}, wantErr: anyErr}}},
	},
	memcproto.OpSubdocSet: {
		{"sets_path", []confStep{doSet, {op: core.Op{Code: memcproto.OpSubdocSet, Path: "m", Doc: map[string]any{"a": "b"}}, check: mutated},
			{op: core.Op{Code: memcproto.OpSubdocGet, Path: "m.a"}, check: docIs("b")}}},
		{"sets_null", []confStep{doSet, {op: core.Op{Code: memcproto.OpSubdocSet, Path: "n", Doc: nil}, check: mutated},
			{op: core.Op{Code: memcproto.OpSubdocGet, Path: "n"}, check: docIs(nil)}}},
		{"absent", []confStep{{op: core.Op{Code: memcproto.OpSubdocSet, Path: "m", Doc: 1.0}, wantErr: notFound}}},
		{"cas_mismatch", []confStep{doSet, {op: core.Op{Code: memcproto.OpSubdocSet, Path: "m", Doc: 1.0}, cas: casWrong, wantErr: cache.ErrCASMismatch}}},
	},
	memcproto.OpSubdocRemove: {
		{"removes_path", []confStep{doSet, {op: core.Op{Code: memcproto.OpSubdocRemove, Path: "n"}, check: mutated},
			{op: core.Op{Code: memcproto.OpSubdocGet, Path: "n"}, wantErr: cache.ErrPathNotFound}}},
		{"no_such_path", []confStep{doSet, {op: core.Op{Code: memcproto.OpSubdocRemove, Path: "nope"}, wantErr: cache.ErrPathNotFound}}},
		{"locked", []confStep{doSet, doLock, {op: core.Op{Code: memcproto.OpSubdocRemove, Path: "n"}, wantErr: cache.ErrLocked}}},
	},
	memcproto.OpSubdocArrAdd: {
		{"appends", []confStep{doSet, {op: core.Op{Code: memcproto.OpSubdocArrAdd, Path: "arr", Doc: "two"}, check: mutated},
			{op: core.Op{Code: memcproto.OpSubdocGet, Path: "arr"}, check: docIs([]any{1.0, "two"})}}},
		{"absent", []confStep{{op: core.Op{Code: memcproto.OpSubdocArrAdd, Path: "arr", Doc: 2.0}, wantErr: notFound}}},
	},
	memcproto.OpSubdocCounter: {
		{"adds", []confStep{doSet, {op: core.Op{Code: memcproto.OpSubdocCounter, Path: "n", Delta: 4}, check: docIs(7.0)},
			{op: core.Op{Code: memcproto.OpSubdocCounter, Path: "n", Delta: -0.5}, check: docIs(6.5)}}},
		{"absent", []confStep{{op: core.Op{Code: memcproto.OpSubdocCounter, Path: "n", Delta: 1}, wantErr: notFound}}},
		{"cas_mismatch", []confStep{doSet, {op: core.Op{Code: memcproto.OpSubdocCounter, Path: "n", Delta: 1}, cas: casWrong, wantErr: cache.ErrCASMismatch}}},
	},
	memcproto.OpXDCRSet: {
		{"incoming_wins", []confStep{
			{op: core.Op{Code: memcproto.OpXDCRSet, Value: []byte(`{"x":1}`), CAS: 1 << 40, RevSeqno: 9, Flags: 3, Expiry: confNow + 50},
				check: func(t *testing.T, res, _ core.Result) {
					if !res.Applied {
						t.Error("XDCR onto an absent key must apply")
					}
				}},
			{op: doGet, check: func(t *testing.T, res, prev core.Result) {
				valueIs(`{"x":1}`)(t, res, prev)
				if res.Item.CAS != 1<<40 || res.Item.RevSeqno != 9 || res.Item.Flags != 3 || res.Item.Expiry != confNow+50 {
					t.Errorf("item after XDCR = %+v, want the source's CAS, revseqno, flags and expiry", res.Item)
				}
			}}}},
		{"incoming_loses", []confStep{
			{op: core.Op{Code: memcproto.OpXDCRSet, Value: []byte(`{"x":1}`), CAS: 1<<40 + 1, RevSeqno: 9}},
			{op: core.Op{Code: memcproto.OpXDCRSet, Deleted: true, CAS: 1 << 39, RevSeqno: 2}, check: func(t *testing.T, res, _ core.Result) {
				if res.Applied {
					t.Error("an older revision must lose conflict resolution")
				}
			}},
			{op: doGet, check: valueIs(`{"x":1}`)}}},
		// The two cases eviction makes interesting: conflict resolution
		// and getmeta must see the stored revision, resident or not.
		{"older_loses_to_stored", []confStep{doSet,
			{op: core.Op{Code: memcproto.OpXDCRSet, Value: []byte(`{"x":2}`), CAS: 1, RevSeqno: 0}, check: func(t *testing.T, res, _ core.Result) {
				if res.Applied {
					t.Error("a revision older than the stored one must lose conflict resolution")
				}
			}},
			{op: doGet, check: valueIs(confDoc)}}},
		{"getmeta_reports_stored", []confStep{
			{op: core.Op{Code: memcproto.OpXDCRSet, Value: []byte(`{"x":1}`), CAS: 1<<40 + 2, RevSeqno: 9}},
			{op: core.Op{Code: memcproto.OpGetMeta}, check: func(t *testing.T, res, _ core.Result) {
				if res.Item.CAS != 1<<40+2 || res.Item.RevSeqno != 9 {
					t.Errorf("GetMeta = %+v, want the stored CAS and revseqno 9", res.Item)
				}
			}}}},
	},
}

// residencies is the suite's third axis: what is done to the case's
// document before each of its steps.
var residencies = []struct {
	name         string
	fullEviction bool
	beforeEachOp func(vb *vbucket.VBucket, key string, now int64)
}{
	{"resident", false, func(*vbucket.VBucket, string, int64) {}},
	{"value_evicted", false, func(vb *vbucket.VBucket, key string, _ int64) {
		vb.Table.EvictValue(key)
	}},
	{"item_evicted", true, func(vb *vbucket.VBucket, key string, now int64) {
		vb.Table.EvictItem(key, vb.PersistedSeqno(), now) // refuses a locked document: a lock lives in memory only
	}},
}

func TestConformance(t *testing.T) {
	for _, full := range []bool{false, true} {
		c, srv, _ := newServedBucket(t, core.BucketOptions{FullEviction: full})
		pool := NewPool()
		t.Cleanup(pool.Close)
		loopback, err := c.LoopbackConn("node0", "default")
		if err != nil {
			t.Fatal(err)
		}
		vb, err := c.NodeVB("node0", "default", confVB)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range residencies {
			if res.fullEviction != full {
				continue
			}
			for _, conn := range []struct {
				name string
				nc   core.NodeConn
			}{{"loopback", loopback}, {"tcp", netConn{addr: addrOf(srv), pool: pool}}} {
				runConformance(t, res.name+"/"+conn.name, conn.nc, func(key string, now int64) {
					if err := vb.DrainDisk(5 * time.Second); err != nil {
						t.Fatal(err)
					}
					res.beforeEachOp(vb, key, now)
				})
			}
		}
	}
}

func runConformance(t *testing.T, name string, nc core.NodeConn, beforeEachOp func(key string, now int64)) {
	ctx := context.Background()
	for _, spec := range memcproto.KVOps() {
		cases := conformance[spec.Code]
		if len(cases) == 0 {
			t.Errorf("op table row %s has no conformance cases", spec.Name)
		}
		for _, tc := range cases {
			t.Run(name+"/"+spec.Name+"/"+tc.name, func(t *testing.T) {
				key := t.Name()
				var prev core.Result
				for i, step := range tc.steps {
					op := step.op
					op.Key = key
					if op.Now == 0 && !step.wall {
						op.Now = confNow
					}
					switch step.cas {
					case casPrev:
						op.CAS = prev.Item.CAS
					case casWrong:
						op.CAS = prev.Item.CAS + 1<<50
					}
					beforeEachOp(key, op.Now)
					res, err := nc.Do(ctx, confVB, op)
					if step.wantErr == anyErr && err != nil {
						err = anyErr
					}
					if !errors.Is(err, step.wantErr) || (step.wantErr == nil && err != nil) {
						t.Fatalf("step %d (%s): err = %v, want %v", i, op.Code, err, step.wantErr)
					}
					if step.check != nil {
						step.check(t, res, prev)
					}
					if err == nil && memcproto.SpecOf(op.Code).Resp == memcproto.ShapeItem {
						prev = res
					}
				}
			})
		}
		// Every op, on every transport, bounces off a vBucket the
		// node does not host with the canonical sentinel.
		t.Run(name+"/"+spec.Name+"/not_my_vbucket", func(t *testing.T) {
			op := core.Op{Code: spec.Code, Key: "k", Path: "p", Now: confNow}
			if _, err := nc.Do(ctx, confAbsentVB, op); !errors.Is(err, vbucket.ErrNotMyVBucket) {
				t.Fatalf("err = %v, want ErrNotMyVBucket", err)
			}
		})
	}
}
