package lint

import "testing"

func TestLockBlock(t *testing.T) {
	fixtures := []fixture{
		{name: "send_while_locked", src: `
package a

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) bad() {
	s.mu.Lock()
	s.ch <- 1 // want: lockblock
	s.mu.Unlock()
}

func (s *S) good() {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1
}
`},
		{name: "receive_under_defer_unlock", src: `
package a

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) bad() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want: lockblock
}
`},
		{name: "select_under_rlock", src: `
package a

import "sync"

type S struct {
	mu   sync.RWMutex
	ch   chan int
	done chan struct{}
}

func (s *S) bad() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	select { // want: lockblock
	case <-s.ch:
	case <-s.done:
	}
}

func (s *S) good() {
	s.mu.RLock()
	s.mu.RUnlock()
	select {
	case <-s.ch:
	case <-s.done:
	}
}
`},
		{name: "range_over_channel", src: `
package a

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
	n  int
}

func (s *S) bad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch { // want: lockblock
		s.n += v
	}
}

func (s *S) goodSlice(xs []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range xs {
		s.n += v
	}
}
`},
		{name: "branch_unlock_scoped", src: `
package a

import "sync"

type S struct {
	mu     sync.Mutex
	ch     chan int
	closed bool
}

func (s *S) good() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.ch <- 1
		return
	}
	s.closed = true
	s.mu.Unlock()
}
`},
		{name: "cross_internal_call", src: `
package a

import (
	"sync"

	"couchgo/internal/dcp"
	"couchgo/internal/metrics"
)

type S struct {
	mu sync.Mutex
	p  *dcp.Producer
}

func (s *S) bad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p = dcp.NewProducer(0, nil) // want: lockblock
}

func (s *S) goodAfterUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.p = dcp.NewProducer(0, nil)
}

func (s *S) goodExempt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	metrics.Default.Counter("couchgo_fixture_total", "op", "x").Inc()
}
`},
		{name: "goroutine_gets_fresh_lock_set", src: `
package a

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) good() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1
	}()
}
`},
		{name: "event_fanout", src: `
package a

import (
	"sync"

	"couchgo/internal/events"
)

type J struct {
	mu   sync.Mutex
	subs []chan int
}

// The journal's fan-out shape: snapshot subscribers under the lock,
// deliver only after releasing it, with select/default so a slow
// subscriber is dropped, never waited on. Clean under lockblock.
func (j *J) publish(v int) {
	j.mu.Lock()
	subs := make([]chan int, len(j.subs))
	copy(subs, j.subs)
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- v:
		default:
		}
	}
}

type S struct {
	mu sync.Mutex
}

// events is an exempt leaf: Publish never blocks, so emitting while
// holding a caller's lock cannot extend a wait-for cycle.
func (s *S) goodExemptPublish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	events.Default.Publish(events.New(events.Config, events.SevInfo, "x"))
}

// But the naive shape — fanning out while still holding the lock —
// is exactly what the rule exists to catch.
func (j *J) badFanOutUnderLock(v int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, ch := range j.subs {
		ch <- v // want: lockblock
	}
}
`},
		{name: "socket_write_under_lock", src: `
package a

import (
	"net"
	"sync"
)

type S struct {
	mu sync.Mutex
	nc net.Conn
}

// The shape the transport layer must never take: a socket write
// blocks for as long as the peer's receive window is closed, so a
// slow peer stalls every other goroutine wanting the lock.
func (s *S) bad(buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nc.Write(buf) // want: lockblock
}

// counting is a byte-counting decorator; its Write is declared
// locally, but the receiver still implements net.Conn, so the write
// is still a socket write.
type counting struct {
	net.Conn
	n int64
}

func (c *counting) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n += int64(n)
	return n, err
}

func (s *S) badWrapped(c *counting, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Write(buf) // want: lockblock
}

func (s *S) goodAfterUnlock(buf []byte) {
	s.mu.Lock()
	s.mu.Unlock()
	s.nc.Write(buf)
}
`},
		{name: "transport_write_loop_clean", src: `
package a

import "net"

// The transport writer-goroutine shape: one goroutine owns the socket
// and drains a channel; no lock is ever held across socket I/O, so
// the read/write loops are clean by construction.
type conn struct {
	nc      net.Conn
	writeCh chan []byte
	closed  chan struct{}
}

func (c *conn) writeLoop() {
	for {
		select {
		case buf := <-c.writeCh:
			if _, err := c.nc.Write(buf); err != nil {
				return
			}
		case <-c.closed:
			return
		}
	}
}

func (c *conn) readLoop(handle func([]byte)) {
	buf := make([]byte, 4096)
	for {
		n, err := c.nc.Read(buf)
		if err != nil {
			return
		}
		handle(buf[:n])
	}
}
`},
		{name: "combining_writer", src: `
package a

import (
	"net"
	"sync"
)

// transport.frameWriter's shape: the sender that finds no write in
// flight raises a flag under the mutex, releases it, and writes; what
// arrives meanwhile queues under the mutex and leaves in the leader's
// next write. The flag, not the mutex, excludes a second writer.
type writer struct {
	mu      sync.Mutex
	nc      net.Conn
	writing bool
	queue   [][]byte
}

func (w *writer) good(buf []byte) error {
	w.mu.Lock()
	w.queue = append(w.queue, buf)
	if w.writing {
		w.mu.Unlock()
		return nil
	}
	w.writing = true
	var err error
	for err == nil && len(w.queue) > 0 {
		batch := w.queue
		w.queue = nil
		w.mu.Unlock()
		for _, b := range batch {
			if _, err = w.nc.Write(b); err != nil {
				break
			}
		}
		w.mu.Lock()
	}
	w.writing = false
	w.mu.Unlock()
	return err
}

// Its broken twin holds the mutex across the write: every sender now
// waits on the peer's receive window instead of queueing behind it.
func (w *writer) bad(buf []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.queue = append(w.queue, buf)
	for len(w.queue) > 0 {
		b := w.queue[0]
		w.queue = w.queue[1:]
		if _, err := w.nc.Write(b); err != nil { // want: lockblock
			return err
		}
	}
	return nil
}
`},
		{name: "distinct_mutexes_tracked_separately", src: `
package a

import "sync"

type S struct {
	opMu sync.Mutex
	mu   sync.Mutex
	ch   chan int
}

func (s *S) bad() {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1 // want: lockblock
}
`},
		// Where the lock rules read a statement differently (heldWalker's
		// fields), for this rule: a func literal, deferred or not, starts
		// with nothing held; a select's comm is the select; x++ is skipped.
		{name: "closure_starts_empty", src: heldFixture + `
func (s *S) f() (func(), func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	quiet := func() { s.ch <- 1 }
	return quiet, func() { s.mu.Lock(); s.ch <- 1 } // want: lockblock
}
`},
		{name: "deferred_closure_starts_empty", src: heldFixture + `
func (s *S) f() { s.mu.Lock(); defer s.mu.Unlock(); defer func() { s.ch <- 1 }() }
`},
		{name: "select_comm_not_walked", src: heldFixture + `
func (s *S) f() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want: lockblock
	case s.ch <- <-s.ch:
	default:
	}
}
`},
		{name: "incdec_not_walked", src: heldFixture + `
func (s *S) f() { s.mu.Lock(); defer s.mu.Unlock(); s.n[<-s.ch]++ }
`},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) { checkFixture(t, LockBlock, fx) })
	}
}
