package transport

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"couchgo/internal/core"
	"couchgo/internal/memcproto"
	"couchgo/internal/trace"
)

// dialTimeout bounds one connection attempt; reconnectMaxBackoff caps
// the fail-fast window after repeated dial failures — the same capped
// backoff+jitter shape the client's route loop uses, enforced at the
// pool so a dead node costs one dial per window, not one per request.
const (
	dialTimeout         = 2 * time.Second
	reconnectMaxBackoff = 250 * time.Millisecond
)

// Conn is one multiplexed client connection: requests are stamped
// with a unique opaque, responses are demuxed back to the waiting
// caller. Callers write their own frames through the conn's
// frameWriter; no mutex is ever held across a socket write (the
// couchvet lockblock rule enforces exactly that shape).
type Conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader // readLoop-only; batches pipelined responses into one syscall
	w    *frameWriter

	mu      sync.Mutex // guards pending/opaque/dead; never held across I/O
	pending map[uint32]waiter
	opaque  uint32
	dead    bool
	err     error
}

func dialConn(addr string) (*Conn, error) {
	raw, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		mDialErrors.Inc()
		return nil, fmt.Errorf("transport: dial %s: %v: %w", addr, err, core.ErrNodeUnreachable)
	}
	c := &Conn{
		addr:    addr,
		nc:      countingConn{raw},
		pending: map[uint32]waiter{},
	}
	c.br = bufio.NewReaderSize(c.nc, 32<<10)
	c.w = &frameWriter{nc: c.nc, onErr: c.fail}
	mConnsCli.Add(1)
	go c.readLoop()
	return c, nil
}

// readLoop is the only goroutine that touches the socket's read side;
// it demuxes response frames to waiting callers by opaque.
func (c *Conn) readLoop() {
	for {
		f, err := memcproto.Read(c.br)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		w, ok := c.pending[f.Opaque]
		delete(c.pending, f.Opaque)
		c.mu.Unlock()
		if ok {
			r := reply{f: f}
			if w.timed {
				r.at = time.Now()
			}
			w.ch <- r
		}
	}
}

// fail marks the conn dead and wakes every waiter with the error.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.err = err
	pending := c.pending
	c.pending = map[uint32]waiter{}
	c.mu.Unlock()

	c.nc.Close()
	mConnsCli.Add(-1)
	for _, w := range pending {
		close(w.ch)
	}
}

// Close tears the connection down; in-flight requests fail with
// ErrNodeUnreachable.
func (c *Conn) Close() { c.fail(fmt.Errorf("transport: conn closed")) }

// respChans recycles the one-shot response channels Roundtrip
// registers per request; a cap-1 chan allocation per op adds up on the
// hot path. A channel only returns to the pool when it is provably
// empty and unclosed (see abandon).
var respChans = sync.Pool{New: func() any { return make(chan reply, 1) }}

// reply is a response and, for a timed waiter, when the read loop had it.
type reply struct {
	f  *memcproto.Frame
	at time.Time
}

// waiter is a pending request: where its response goes, and whether its
// caller times the stages (1 op in 16; the read loop reads the clock for
// those only).
type waiter struct {
	ch    chan reply
	timed bool
}

// Roundtrip sends one request frame and waits for its response. Conn
// death wraps core.ErrNodeUnreachable, so the route loop treats it as
// a retryable topology wobble; a ctx that ends is returned as it is.
// The caller writes its own frame, yielding once first when other
// requests are in flight on the conn so theirs can share the syscall.
func (c *Conn) Roundtrip(ctx context.Context, f *memcproto.Frame) (*memcproto.Frame, error) {
	st := startStages(trace.FromContext(ctx))
	c.mu.Lock()
	if c.dead {
		err := c.err
		c.mu.Unlock()
		return nil, fmt.Errorf("transport: %s: %v: %w", c.addr, err, core.ErrNodeUnreachable)
	}
	c.opaque++
	f.Opaque = c.opaque
	ch := respChans.Get().(chan reply)
	c.pending[f.Opaque] = waiter{ch, !st.at.IsZero()}
	crowded := len(c.pending) > 1
	c.mu.Unlock()

	buf, err := encodeFrame(f)
	if err != nil {
		c.abandon(f.Opaque, ch)
		return nil, err
	}
	if err := c.w.write(ctx, buf, false, crowded); err != nil {
		c.abandon(f.Opaque, ch)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("transport: %s: %v: %w", c.addr, err, core.ErrNodeUnreachable)
	}
	st.mark(stageSend)

	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("transport: %s: conn died mid-request: %w", c.addr, core.ErrNodeUnreachable)
		}
		respChans.Put(ch)
		if !st.at.IsZero() {
			(&stages{st.sp, resp.at}).mark(stageWake)
		}
		st.mark(stageAwait)
		return resp.f, nil
	case <-ctx.Done():
		c.abandon(f.Opaque, ch)
		return nil, ctx.Err()
	}
}

// abandon gives up on a registered request. If the opaque was still
// pending, nobody else can touch ch and it goes straight back to the
// pool. Otherwise readLoop (a send is imminent or buffered) or fail
// (close) already claimed it: consume the outcome, and recycle only
// after a received value — a closed channel is dead to the pool.
func (c *Conn) abandon(opaque uint32, ch chan reply) {
	c.mu.Lock()
	_, pending := c.pending[opaque]
	delete(c.pending, opaque)
	c.mu.Unlock()
	if pending {
		respChans.Put(ch)
		return
	}
	if _, ok := <-ch; ok {
		respChans.Put(ch)
	}
}

// poolEntry tracks one node's connection plus its reconnect backoff
// state.
type poolEntry struct {
	conn     *Conn
	failures int
	nextTry  time.Time
}

// Pool hands out one live multiplexed Conn per node address, redialing
// dead ones behind a capped, jittered backoff: inside the backoff
// window Get fails fast with ErrNodeUnreachable and the caller's route
// loop does the sleeping.
type Pool struct {
	mu    sync.Mutex
	conns map[string]*poolEntry
}

// NewPool builds an empty client pool.
func NewPool() *Pool {
	return &Pool{conns: map[string]*poolEntry{}}
}

// Get returns the live conn for addr, dialing if needed.
func (p *Pool) Get(addr string) (*Conn, error) {
	p.mu.Lock()
	e := p.conns[addr]
	if e == nil {
		e = &poolEntry{}
		p.conns[addr] = e
	}
	if e.conn != nil && !e.conn.isDead() {
		c := e.conn
		p.mu.Unlock()
		return c, nil
	}
	if !e.nextTry.IsZero() && time.Now().Before(e.nextTry) {
		p.mu.Unlock()
		return nil, fmt.Errorf("transport: %s: in reconnect backoff: %w", addr, core.ErrNodeUnreachable)
	}
	p.mu.Unlock()

	// Dial outside the lock; losers of a dial race close their extra.
	c, err := dialConn(addr)

	p.mu.Lock()
	defer p.mu.Unlock()
	e = p.conns[addr]
	if err != nil {
		e.failures++
		e.nextTry = time.Now().Add(reconnectBackoff(e.failures))
		return nil, err
	}
	if e.conn != nil && !e.conn.isDead() {
		c.Close()
		return e.conn, nil
	}
	e.conn = c
	e.failures = 0
	e.nextTry = time.Time{}
	return c, nil
}

// reconnectBackoff computes the fail-fast window after the Nth
// consecutive dial failure: exponential in failures, capped at
// reconnectMaxBackoff, with ±50% jitter so a restarted node is not
// hit by every client on the same tick. Get never sleeps this out —
// it returns ErrNodeUnreachable immediately and the window only
// gates when the next dial may be attempted.
func reconnectBackoff(failures int) time.Duration {
	backoff := time.Millisecond << min(failures, 10)
	if backoff > reconnectMaxBackoff {
		backoff = reconnectMaxBackoff
	}
	// ±50% jitter, mirroring the route loop's.
	backoff += time.Duration(rand.Int63n(int64(backoff))) - backoff/2
	return backoff
}

// Close tears down every conn.
func (p *Pool) Close() {
	p.mu.Lock()
	conns := p.conns
	p.conns = map[string]*poolEntry{}
	p.mu.Unlock()
	for _, e := range conns {
		if e.conn != nil {
			e.conn.Close()
		}
	}
}

func (c *Conn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}
