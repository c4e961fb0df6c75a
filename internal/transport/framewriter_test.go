package transport

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/memcproto"
	"couchgo/internal/metrics"
	"couchgo/internal/trace"
)

// tcpPair is one loopback connection, both ends.
func tcpPair(t *testing.T) (cli, srv net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// TestFrameWriterKeepsOrderAndLosesNothing drives 8 producers × 2 000
// frames through one writer over TCP in every mode a sender can use
// (plain, held then flushed, crowded, and under a hold toggled from the
// side): each producer's frames arrive in its order, once each.
func TestFrameWriterKeepsOrderAndLosesNothing(t *testing.T) {
	const producers, frames = 8, 2000
	cli, srv := tcpPair(t)
	w := &frameWriter{nc: cli, onErr: func(err error) { t.Errorf("write error: %v", err) }}

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				// A value larger than the queue bound now and then, so
				// producers also wait for space.
				var value []byte
				if i%500 == 499 {
					value = make([]byte, maxCoalesceBytes/2)
				}
				buf, err := encodeFrame(&memcproto.Frame{Magic: memcproto.MagicReq, Opcode: memcproto.OpNoop,
					Opaque: uint32(p)<<16 | uint32(i), Value: value})
				if err != nil {
					t.Error(err)
					return
				}
				// Producer 0 holds all but every 8th frame and its last;
				// odd producers say they are crowded.
				held := p == 0 && i%8 != 7 && i != frames-1
				if err := w.write(context.Background(), buf, held, p%2 == 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	toggled := make(chan struct{})
	go func() { // the server read loop's use of hold
		defer close(toggled)
		for on := true; ; on = !on {
			select {
			case <-stop:
				w.hold(false)
				return
			default:
				w.hold(on)
				runtime.Gosched()
			}
		}
	}()

	next := make([]uint32, producers)
	srv.SetReadDeadline(time.Now().Add(30 * time.Second))
	for n := 0; n < producers*frames; n++ {
		if n == producers*frames/2 {
			wg.Wait() // the rest is whatever is still held: only hold(false) frees it
			close(stop)
			<-toggled
		}
		f, err := memcproto.Read(srv)
		if err != nil {
			t.Fatalf("after %d frames: %v", n, err)
		}
		p, i := f.Opaque>>16, f.Opaque&0xffff
		if i != next[p] {
			t.Fatalf("producer %d: frame %d arrived where %d was due", p, i, next[p])
		}
		next[p]++
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.queue) != 0 || w.queued != 0 || w.writing {
		t.Fatalf("writer not idle: %d queued frames, %d bytes, writing=%v", len(w.queue), w.queued, w.writing)
	}
}

// stuckConn blocks every Write until released, then fails it.
type stuckConn struct {
	net.Conn
	entered chan struct{}
	release chan struct{}
}

func (c stuckConn) Write(p []byte) (int, error) {
	c.entered <- struct{}{}
	<-c.release
	return 0, io.ErrClosedPipe
}

// TestFrameWriterWriteErrorReachesTheConnOnce: frames queue behind a
// leader stuck in Write; when that write fails the conn is failed once,
// the queue (its buffers recycled) is gone, producers waiting for space
// are released with the error, and so is every later write.
func TestFrameWriterWriteErrorReachesTheConnOnce(t *testing.T) {
	nc := stuckConn{entered: make(chan struct{}, 1), release: make(chan struct{})}
	var failed atomic.Int32
	w := &frameWriter{nc: nc, onErr: func(error) { failed.Add(1) }}
	frame := func(n int) *[]byte {
		buf, err := encodeFrame(&memcproto.Frame{Magic: memcproto.MagicReq, Opcode: memcproto.OpNoop, Value: make([]byte, n)})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	leader := make(chan error, 1)
	go func() { leader <- w.write(context.Background(), frame(10), false, false) }()
	<-nc.entered
	for i := 0; i < 3; i++ { // riders: queued, not blocked; the last fills the queue
		if err := w.write(context.Background(), frame(maxCoalesceBytes/3+1), false, false); err != nil {
			t.Fatal(err)
		}
	}
	waiters := make(chan error, 3)
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 3; i++ {
		go func(i int) {
			c := context.Background()
			if i == 0 {
				c = ctx // this one gives up first
			}
			waiters <- w.write(c, frame(10), false, false)
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-waiters; !errors.Is(err, context.Canceled) {
		t.Fatalf("a producer whose ctx ended while the queue was full got %v", err)
	}
	close(nc.release)
	if err := <-leader; !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("leader got %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-waiters; !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("a producer waiting for space got %v", err)
		}
	}
	if err := w.write(context.Background(), frame(10), false, false); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("a write after the failure got %v", err)
	}
	if n := failed.Load(); n != 1 {
		t.Fatalf("conn failed %d times, want once", n)
	}
	if len(w.queue) != 0 || w.queued != 0 || w.writing {
		t.Fatalf("after the failure: %d queued frames, %d bytes, writing=%v", len(w.queue), w.queued, w.writing)
	}
}

// TestHeldResponsesLeaveBeforeTheReadBlocks pipelines Gets and, last, a
// durable Set that leaves the inline path (and cannot be satisfied on
// one node): the Gets' responses were held while more requests were in
// sight, and must arrive with no further input, long before the Set's.
func TestHeldResponsesLeaveBeforeTheReadBlocks(t *testing.T) {
	_, srv, cl := newServedCluster(t, 0)
	ctx := context.Background()
	if _, err := cl.Set(ctx, "k", []byte(`{"n":1}`), 0); err != nil {
		t.Fatal(err)
	}
	vb := cmap.VBucketID("k", 16)
	const gets = 5
	var batch []byte
	for i := 0; i <= gets; i++ {
		op := core.Op{Code: memcproto.OpGet, Key: "k"}
		if i == gets {
			op = core.Op{Code: memcproto.OpSet, Key: "k", Value: []byte(`{"n":2}`),
				Dur: core.DurabilityOptions{ReplicateTo: 1, Timeout: 3 * time.Second}}
		}
		f, err := encodeRequest(ctx, memcproto.SpecOf(op.Code), vb, op)
		if err != nil {
			t.Fatal(err)
		}
		f.Opaque = uint32(i + 1)
		if batch, err = f.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	before := mFramesPerSyscall.Snapshot()
	if _, err := nc.Write(batch); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(time.Second))
	for i := 1; i <= gets; i++ {
		f, err := memcproto.Read(nc)
		if err != nil {
			t.Fatalf("response %d of %d did not arrive while the durable Set waits: %v", i, gets, err)
		}
		if f.Opaque != uint32(i) || f.Status != memcproto.StatusOK {
			t.Fatalf("response %d: opaque %d status %v", i, f.Opaque, f.Status)
		}
	}
	// Seen together (one segment on loopback), they left together.
	after := mFramesPerSyscall.Snapshot()
	if writes := after.Count - before.Count; writes >= gets {
		t.Errorf("%d responses took %d socket writes", gets, writes)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if f, err := memcproto.Read(nc); err != nil || f.Opaque != gets+1 || f.Status == memcproto.StatusOK {
		t.Fatalf("durable Set on one node: %+v, %v; want its timeout", f, err)
	}
}

// TestCtxEndsWhileSocketIsFull: against a peer that never reads, a
// caller that is the writer, blocked in Write, is released when its ctx
// ends, with ctx's error, and the conn is failed.
func TestCtxEndsWhileSocketIsFull(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c // held open, never read
		}
	}()
	pool := NewPool()
	defer pool.Close()
	conn, err := pool.Get(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { (<-accepted).Close() }()

	// A ctx that is over before the write neither leads nor costs the
	// other callers their conn.
	over, cancelled := context.WithCancel(context.Background())
	cancelled()
	if _, err := conn.Roundtrip(over, &memcproto.Frame{Magic: memcproto.MagicReq, Opcode: memcproto.OpNoop}); !errors.Is(err, context.Canceled) || conn.isDead() {
		t.Fatalf("Roundtrip under a cancelled ctx = %v, conn dead = %v", err, conn.isDead())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		// Far more than loopback's socket buffers hold.
		_, err := conn.Roundtrip(ctx, &memcproto.Frame{Magic: memcproto.MagicReq, Opcode: memcproto.OpSet,
			Key: []byte("k"), Value: make([]byte, memcproto.MaxBodyLen-64)})
		done <- err
	}()
	waitFor(t, 10*time.Second, func() bool { // the caller leads, and the socket fills
		conn.w.mu.Lock()
		defer conn.w.mu.Unlock()
		return conn.w.writing
	})
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) || errors.Is(err, core.ErrNodeUnreachable) {
			t.Fatalf("Roundtrip = %v, want the bare ctx error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the caller outlived its ctx by 5s, blocked in Write")
	}
	if !conn.isDead() {
		t.Fatal("a conn whose write was abandoned halfway must be failed")
	}
}

// TestUnencodableResponseClosesTheSession: a response that cannot be
// encoded used to be dropped, leaving its opaque pending forever; now
// the session closes and the drop is counted.
func TestUnencodableResponseClosesTheSession(t *testing.T) {
	_, srv, _ := newServedCluster(t, 0)
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var sess *session
	waitFor(t, 2*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for s := range srv.sessions {
			sess = s
		}
		return sess != nil
	})
	before := mDroppedFrames.Value()
	sess.respond(&memcproto.Frame{Opcode: memcproto.OpNoop, Opaque: 1}, memcproto.StatusOK, make([]byte, 256), nil, 0)
	if got := mDroppedFrames.Value() - before; got != 1 {
		t.Fatalf("couchgo_transport_dropped_frames_total moved by %d, want 1", got)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("client read = %v, want EOF from the closed session", err)
	}
}

// processPair forms a two-member cluster the way two cbserver processes
// do (each member its own one-node core.Cluster), replicas 1.
func processPair(t *testing.T, numVB int) (nodes [2]*ClusterNode, clusters [2]*core.Cluster) {
	t.Helper()
	for i := range nodes {
		c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: numVB})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if _, err := c.AddNode("local", cmap.AllServices); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateBucket("default", core.BucketOptions{NumReplicas: 1}); err != nil {
			t.Fatal(err)
		}
		opts := NodeOptions{Cluster: c, Bucket: "default", KVAddr: "127.0.0.1:0", HeartbeatInterval: 50 * time.Millisecond, ClusterSize: 2}
		if i == 1 {
			opts.Join = nodes[0].KVAddr()
		}
		n, err := StartNode(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		nodes[i], clusters[i] = n, c
	}
	waitFor(t, 10*time.Second, func() bool {
		for _, n := range nodes {
			if m := n.currentMap(); len(m.Nodes) != 2 || len(m.Chains[0]) != 2 {
				return false
			}
		}
		return true
	})
	return nodes, clusters
}

// TestAckOnDemand: a replica acks what somebody waits for. Plain Sets
// replicate without one OpDCPAck frame; a ReplicateTo:1 Set returns
// after one; and a waiter whose stream was severed is acked when the
// re-linked replica has caught up, well inside its timeout.
func TestAckOnDemand(t *testing.T) {
	const numVB = 4
	nodes, clusters := processPair(t, numVB)
	cl := core.NewClient(nodes[0].Router(), "default")
	ctx := context.Background()
	// highs is every copy's high seqno, member by member.
	highs := func() (out [2][numVB]uint64) {
		for i, c := range clusters {
			for vb := 0; vb < numVB; vb++ {
				if v, err := c.NodeVB("local", "default", vb); err == nil && v != nil {
					out[i][vb] = v.HighSeqno()
				}
			}
		}
		return out
	}
	replicated := func() bool { h := highs(); return h[0] == h[1] }
	waitFor(t, 5*time.Second, replicated)

	before := mDCPAcks.Value()
	for i := 0; i < 1000; i++ {
		if _, err := cl.Set(ctx, "plain-"+string(rune('a'+i%26))+string(rune('a'+i/26%26)), []byte(`{"n":1}`), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, replicated)
	if got := mDCPAcks.Value() - before; got != 0 {
		t.Fatalf("1000 plain Sets cost %d acks, want none: nobody waited", got)
	}

	durable := core.DurabilityOptions{ReplicateTo: 1, Timeout: 20 * time.Second}
	if _, err := cl.SetWithOptions(ctx, "waited", []byte(`{"n":2}`), 0, 0, 0, durable); err != nil {
		t.Fatalf("ReplicateTo:1 Set: %v", err)
	}
	if got := mDCPAcks.Value() - before; got != 1 {
		t.Fatalf("one ReplicateTo:1 Set cost %d acks, want 1", got)
	}

	// Sever every link, block a waiter, then heal: a map that drops the
	// replicas and one that restores them gives each copy a new link.
	for _, c := range clusters {
		if err := c.SeverReplication("default"); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := cl.SetWithOptions(ctx, "waited", []byte(`{"n":3}`), 0, 0, 0, durable)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("ReplicateTo:1 Set over severed links returned %v", err)
	case <-time.After(200 * time.Millisecond):
	}
	formed := nodes[0].currentMap()
	solo, healed := formed.Clone(), formed.Clone()
	solo.Rev, healed.Rev = formed.Rev+1, formed.Rev+2
	for vb, chain := range solo.Chains {
		solo.Chains[vb] = chain[:1]
	}
	for _, m := range []*cmap.Map{solo, healed} {
		for _, n := range nodes {
			if err := n.apply("default", m); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("the blocked waiter: %v", err)
		}
	case <-time.After(durable.Timeout / 2):
		t.Fatal("the blocked waiter was not acked on catch-up")
	}
	t.Logf("waiter released %v after it began, timeout %v", time.Since(start).Round(time.Millisecond), durable.Timeout)
}

// TestStagesSumToTheRoundTrip: the stage timers open the round trip
// without losing any of it. Over 2 000 traced Gets (a sampled trace
// times every op; untraced ones are timed 1 in 16) the client's send +
// await means are the measured Roundtrip mean within 15 %, the server's
// three stages fit inside await, and the trace shows all six as spans.
func TestStagesSumToTheRoundTrip(t *testing.T) {
	_, srv, cl := newServedCluster(t, 0)
	ctx := context.Background()
	if _, err := cl.Set(ctx, "k", []byte(`{"n":1}`), 0); err != nil {
		t.Fatal(err)
	}
	trace.Default.SetRate(1)
	t.Cleanup(func() {
		trace.Default.SetRate(0)
		trace.Default.Clear()
	})
	pool := NewPool()
	defer pool.Close()
	conn, err := pool.Get(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	all := []stage{stageSend, stageAwait, stageWake, stageDecode, stageExecute, stageRespond}
	before := make([]metrics.HistSnapshot, len(all))
	for i, st := range all {
		before[i] = st.h.Snapshot()
	}
	const ops = 2000
	var measured time.Duration
	var last *trace.Span
	for i := 0; i < ops; i++ {
		tctx, root := trace.Default.Start(ctx, "kv:get")
		f, err := encodeRequest(tctx, memcproto.SpecOf(memcproto.OpGet), cmap.VBucketID("k", 16), core.Op{Code: memcproto.OpGet, Key: "k"})
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		resp, err := conn.Roundtrip(tctx, f)
		measured += time.Since(t0)
		if err != nil || resp.Status != memcproto.StatusOK {
			t.Fatalf("Get %d: %v %v", i, resp, err)
		}
		root.End()
		last = root
	}
	mean := map[string]float64{}
	for i, st := range all {
		// The server marks respond after the response is on its way.
		waitFor(t, 2*time.Second, func() bool { return st.h.Snapshot().Count-before[i].Count >= ops })
		after := st.h.Snapshot()
		if n := after.Count - before[i].Count; n != ops {
			t.Fatalf("%s observed %d of %d traced ops", st.span, n, ops)
		}
		mean[st.span] = float64(after.Sum-before[i].Sum) / ops
	}
	whole := float64(measured) / ops
	if sum := mean["wire:send"] + mean["wire:await"]; sum < 0.85*whole || sum > 1.15*whole {
		t.Errorf("send %.0f ns + await %.0f ns = %.0f ns, not within 15%% of the measured round trip %.0f ns", mean["wire:send"], mean["wire:await"], sum, whole)
	}
	if server := mean["wire:decode"] + mean["wire:execute"] + mean["wire:respond"]; server > mean["wire:await"] {
		t.Errorf("server stages %.0f ns exceed the client's await %.0f ns", server, mean["wire:await"])
	}
	if mean["wire:wake"] > mean["wire:await"] {
		t.Errorf("wake %.0f ns exceeds await %.0f ns, which contains it", mean["wire:wake"], mean["wire:await"])
	}
	t.Logf("round trip %.0f ns = send %.0f + await %.0f (wake %.0f); server decode %.0f + execute %.0f + respond %.0f",
		whole, mean["wire:send"], mean["wire:await"], mean["wire:wake"], mean["wire:decode"], mean["wire:execute"], mean["wire:respond"])

	seen := map[string]bool{}
	for _, p := range trace.Default.Portions(last.Trace().ID) {
		for _, name := range p.Names() {
			seen[name] = true
		}
	}
	for _, st := range all {
		if !seen[st.span] {
			t.Errorf("trace %d has no %s span: %v", last.Trace().ID, st.span, seen)
		}
	}
}

// TestConnGoroutines: a dialled Conn costs one goroutine, its read
// loop; callers write their own frames.
func TestConnGoroutines(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // accepts and holds, with no goroutine per conn
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	// Earlier tests' sessions may still be winding down: count from a
	// settled number.
	before := runtime.NumGoroutine()
	for settled := 0; settled < 5; {
		time.Sleep(10 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == before {
			settled++
		} else {
			before, settled = n, 0
		}
	}
	const conns = 16
	for i := 0; i < conns; i++ {
		c, err := dialConn(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	// Unrelated goroutines come and go (timers, other tests' teardown):
	// the count must come to rest on one per conn.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine()-before != conns {
		if time.Now().After(deadline) {
			t.Fatalf("%d conns added %d goroutines, want %d", conns, runtime.NumGoroutine()-before, conns)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOneWriterOfEverySocket (go/parser, non-test files of this
// package): the only Write on a net.Conn field is frameWriter's, the
// only scheduler yield is inside a frameWriter method, and no writer
// goroutine has come back under any of its old names.
func TestOneWriterOfEverySocket(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var writes, yieldsOutside []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			recv := ""
			if fn.Recv != nil {
				if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
					recv = star.X.(*ast.Ident).Name
				} else if id, ok := fn.Recv.List[0].Type.(*ast.Ident); ok {
					recv = id.Name
				}
			}
			if fn.Name.Name == "writeLoop" || fn.Name.Name == "writeCoalesced" {
				t.Errorf("%s: func %s: writer goroutines are gone; senders write through frameWriter", name, fn.Name.Name)
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				at := fset.Position(call.Pos()).String()
				switch x := sel.X.(type) {
				case *ast.SelectorExpr: // w.nc.Write: a socket held in a field
					if sel.Sel.Name == "Write" && x.Sel.Name == "nc" {
						writes = append(writes, at+" in "+recv+"."+fn.Name.Name)
					}
				case *ast.Ident:
					if sel.Sel.Name == "Write" && (x.Name == "nc" || x.Name == "raw") {
						writes = append(writes, at+" in "+recv+"."+fn.Name.Name)
					}
					if x.Name == "runtime" && sel.Sel.Name == "Gosched" && recv != "frameWriter" {
						yieldsOutside = append(yieldsOutside, at)
					}
				}
				return true
			})
		}
	}
	if len(writes) != 1 || !strings.Contains(writes[0], "in frameWriter.") {
		t.Errorf("socket Write call sites: %v; want exactly one, in a frameWriter method", writes)
	}
	if len(yieldsOutside) != 0 {
		t.Errorf("runtime.Gosched outside frameWriter: %v; a sender batches on what it can see, not on a blind yield", yieldsOutside)
	}
}
