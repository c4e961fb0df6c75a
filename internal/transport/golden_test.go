package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"couchgo/internal/core"
	"couchgo/internal/memcproto"
)

// frameTap is a TCP proxy that records every frame crossing it, in
// order: the client's request bytes exactly as netConn framed them and
// the server's response bytes exactly as the session framed them.
type frameTap struct {
	ln net.Listener
	mu sync.Mutex
	// frames alternate request, response: the script is synchronous.
	frames [][]byte
}

func newFrameTap(t *testing.T, serverAddr string) *frameTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &frameTap{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", serverAddr)
			if err != nil {
				down.Close()
				return
			}
			go tap.pipe(down, up)
			go tap.pipe(up, down)
		}
	}()
	return tap
}

func (tap *frameTap) pipe(src, dst net.Conn) {
	defer src.Close()
	defer dst.Close()
	br := bufio.NewReader(src)
	for {
		f, err := memcproto.Read(br)
		if err != nil {
			return
		}
		raw, err := f.Encode()
		if err != nil {
			return
		}
		tap.mu.Lock()
		tap.frames = append(tap.frames, raw)
		tap.mu.Unlock()
		if _, err := dst.Write(raw); err != nil {
			return
		}
	}
}

// goldenNow is the script's frozen client clock.
const goldenNow = 1700000000

// goldenScript is the op sequence whose request and response frames
// testdata/golden_frames.txt pins. CAS values come from a
// process-global counter, so the script spells them relative to the
// CAS of its first Set (rel 1): a nonzero Op.CAS of n means "first CAS
// + n - 1", casFrom means "the CAS that named step returned", and the
// recorded frames are rebased the same way before comparison.
var goldenScript = []struct {
	name    string
	op      core.Op
	casFrom string
}{
	{"set", core.Op{Code: memcproto.OpSet, Key: "golden", Value: []byte(`{"n":1,"arr":[1]}`), Flags: 7}, ""},
	{"get", core.Op{Code: memcproto.OpGet, Key: "golden"}, ""},
	{"get_absent", core.Op{Code: memcproto.OpGet, Key: "absent"}, ""},
	{"add_exists", core.Op{Code: memcproto.OpAdd, Key: "golden", Value: []byte(`{}`)}, ""},
	{"add", core.Op{Code: memcproto.OpAdd, Key: "golden2", Value: []byte(`{}`)}, ""},
	{"replace_cas", core.Op{Code: memcproto.OpReplace, Key: "golden", Value: []byte(`{"n":2,"arr":[1]}`)}, "set"},
	{"replace_cas_mismatch", core.Op{Code: memcproto.OpReplace, Key: "golden", Value: []byte(`{}`), CAS: 500}, ""},
	{"set_raw", core.Op{Code: memcproto.OpSet, Key: "goldenraw", Value: []byte("mid"), Expiry: goldenNow + 1000}, ""},
	{"append", core.Op{Code: memcproto.OpAppendVal, Key: "goldenraw", Value: []byte("-end")}, ""},
	{"prepend", core.Op{Code: memcproto.OpPrependVal, Key: "goldenraw", Value: []byte("start-")}, ""},
	{"touch", core.Op{Code: memcproto.OpTouch, Key: "golden", Expiry: goldenNow + 100}, ""},
	{"getandlock", core.Op{Code: memcproto.OpGetAndLock, Key: "golden", Expiry: 30}, ""},
	{"set_locked", core.Op{Code: memcproto.OpSet, Key: "golden", Value: []byte(`{}`)}, ""},
	{"unlock", core.Op{Code: memcproto.OpUnlock, Key: "golden"}, "getandlock"},
	{"getmeta", core.Op{Code: memcproto.OpGetMeta, Key: "golden"}, ""},
	{"subdoc_get", core.Op{Code: memcproto.OpSubdocGet, Key: "golden", Path: "n"}, ""},
	{"subdoc_set", core.Op{Code: memcproto.OpSubdocSet, Key: "golden", Path: "m", Doc: map[string]any{"a": 5.0}}, ""},
	{"subdoc_set_null", core.Op{Code: memcproto.OpSubdocSet, Key: "golden", Path: "z", Doc: nil}, ""},
	{"subdoc_remove", core.Op{Code: memcproto.OpSubdocRemove, Key: "golden", Path: "m"}, ""},
	{"subdoc_arrayappend", core.Op{Code: memcproto.OpSubdocArrAdd, Key: "golden", Path: "arr", Doc: 2.0}, ""},
	{"subdoc_counter", core.Op{Code: memcproto.OpSubdocCounter, Key: "golden", Path: "n", Delta: 4}, ""},
	{"subdoc_get_nopath", core.Op{Code: memcproto.OpSubdocGet, Key: "golden", Path: "nope"}, ""},
	{"xdcr_set", core.Op{Code: memcproto.OpXDCRSet, Key: "goldenx", Value: []byte(`{"x":1}`), CAS: 1000, RevSeqno: 9, Flags: 1, Expiry: goldenNow + 50}, ""},
	{"xdcr_set_loses", core.Op{Code: memcproto.OpXDCRSet, Key: "goldenx", Deleted: true, CAS: 900, RevSeqno: 2}, ""},
	{"set_persist", core.Op{Code: memcproto.OpSet, Key: "golden", Value: []byte(`{"d":1}`),
		Dur: core.DurabilityOptions{PersistTo: true, Timeout: 5 * time.Second}}, ""},
	{"delete", core.Op{Code: memcproto.OpDelete, Key: "golden"}, ""},
	{"delete_absent", core.Op{Code: memcproto.OpDelete, Key: "absent"}, ""},
	{"get_not_my_vbucket", core.Op{Code: memcproto.OpGet, Key: "golden"}, ""},
}

// goldenVB is the vBucket every scripted op addresses; the last step
// addresses one the node does not host.
const goldenVB, goldenAbsentVB = 3, 900

// rebaseCAS rewrites a raw frame's header CAS, if nonzero, relative to
// base (the script's first CAS becomes 1).
func rebaseCAS(raw []byte, base uint64) {
	if cas := binary.BigEndian.Uint64(raw[16:24]); cas != 0 {
		binary.BigEndian.PutUint64(raw[16:24], cas-base+1)
	}
}

// TestGoldenFrames replays goldenScript through the real netConn and
// the real server session with a recording proxy between them, and
// asserts every request and response frame is byte-identical to the
// frames the same script produced at the commit before the op table
// (PR 11's 17-method netConn and per-opcode handleKV switch), where
// testdata/golden_frames.txt was recorded by this same test body with
// an adapter from Op to the 17 methods. An intended wire change edits
// that file by hand from the failure output (PR 22: touch became a
// mutation, so every CAS, seqno and revseqno after the script's touch
// is one higher; no layout changed).
func TestGoldenFrames(t *testing.T) {
	_, srv, _ := newServedCluster(t, 0)
	tap := newFrameTap(t, addrOf(srv))
	pool := NewPool()
	t.Cleanup(pool.Close)
	nc := netConn{addr: tap.ln.Addr().String(), pool: pool}

	ctx := context.Background()
	var base uint64
	casOf := map[string]uint64{}
	for i, step := range goldenScript {
		op, vb := step.op, goldenVB
		// The parent's GetMeta took no clock and shipped now = 0; the
		// client now stamps every op, so only this input differs.
		if op.Code != memcproto.OpGetMeta {
			op.Now = goldenNow
		}
		if op.CAS != 0 {
			op.CAS += base - 1
		}
		if step.casFrom != "" {
			op.CAS = casOf[step.casFrom]
		}
		if i == len(goldenScript)-1 {
			vb = goldenAbsentVB
		}
		res, _ := nc.Do(ctx, vb, op)
		casOf[step.name] = res.Item.CAS
		if i == 0 {
			if base = res.Item.CAS; base == 0 {
				t.Fatal("first Set returned no CAS")
			}
		}
	}

	tap.mu.Lock()
	frames := tap.frames
	tap.mu.Unlock()
	if len(frames) != 2*len(goldenScript) {
		t.Fatalf("recorded %d frames, want %d", len(frames), 2*len(goldenScript))
	}
	var got strings.Builder
	for i, raw := range frames {
		rebaseCAS(raw, base)
		dir := "req"
		if i%2 == 1 {
			dir = "res"
		}
		fmt.Fprintf(&got, "%s %s %s\n", dir, goldenScript[i/2].name, hex.EncodeToString(raw))
	}

	want, err := os.ReadFile("testdata/golden_frames.txt")
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d frame lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("frame %d differs from the parent commit's bytes:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
}
