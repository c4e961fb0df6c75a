package lint

import "testing"

// TestLockOrder exercises the acquisition-graph cycle detector: direct
// AB/BA inversion, an inversion hidden behind a helper call, the
// cross-type method cycle shape (the transport-coordinator vs
// core-member pattern the rule exists for), and the clean cases —
// consistent ordering and same-type hand-over-hand (collapsed
// identities drop self-edges by design).
func TestLockOrder(t *testing.T) {
	fixtures := []fixture{
		{name: "ab_ba_direct", src: `
package a

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *S) f() {
	s.a.Lock()
	s.b.Lock() // want: lockorder
	s.b.Unlock()
	s.a.Unlock()
}

func (s *S) g() {
	s.b.Lock()
	s.a.Lock() // want: lockorder
	s.a.Unlock()
	s.b.Unlock()
}
`},
		{name: "inversion_via_helper", src: `
package a

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *S) lockB() {
	s.b.Lock()
	s.b.Unlock()
}

func (s *S) f() {
	s.a.Lock()
	s.lockB() // want: lockorder
	s.a.Unlock()
}

func (s *S) g() {
	s.b.Lock()
	s.a.Lock() // want: lockorder
	s.a.Unlock()
	s.b.Unlock()
}
`},
		{name: "cross_type_method_cycle", src: `
package a

import "sync"

// The real-tree shape this rule hunts: a coordinator that holds its
// own lock while pushing to members, and a member that holds its own
// lock while reporting back to the coordinator.

type Coordinator struct {
	mu      sync.Mutex
	members []*Member
}

type Member struct {
	mu    sync.Mutex
	coord *Coordinator
}

func (c *Coordinator) Broadcast() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		m.Push() // want: lockorder
	}
}

func (m *Member) Push() {
	m.mu.Lock()
	defer m.mu.Unlock()
}

func (m *Member) Report() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.coord.Note() // want: lockorder
}

func (c *Coordinator) Note() {
	c.mu.Lock()
	defer c.mu.Unlock()
}
`},
		{name: "consistent_order_clean", src: `
package a

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *S) f() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

func (s *S) g() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}
`},
		{name: "released_before_second_clean", src: `
package a

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *S) f() {
	s.a.Lock()
	s.a.Unlock()
	s.b.Lock()
	s.b.Unlock()
}

func (s *S) g() {
	s.b.Lock()
	s.b.Unlock()
	s.a.Lock()
	s.a.Unlock()
}
`},
		{name: "same_type_collapsed_clean", src: `
package a

import "sync"

type Account struct {
	mu sync.Mutex
}

// Hand-over-hand over two instances of one type is a self-edge on the
// collapsed identity; dropped by design (documented imprecision).
func transfer(x, y *Account) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}
`},
		{name: "striped_commit_clean", src: `
package a

import "sync"

// The striped-cache shape: N bucket stripes each with its own lock,
// plus one table-level sequencing lock. Every writer acquires its
// stripe first, then enters seqMu via the commit helper; readers take
// only a stripe. The acquisition graph has the single edge
// stripe.mu -> seqMu and is acyclic.

type stripe struct {
	mu sync.Mutex
	m  map[string]int
}

type Table struct {
	seqMu   sync.Mutex
	seqno   int
	stripes [4]stripe
}

func (t *Table) commit(st *stripe, k string) {
	t.seqMu.Lock()
	t.seqno++
	st.m[k] = t.seqno
	t.seqMu.Unlock()
}

func (t *Table) Set(k string) {
	st := &t.stripes[len(k)%4]
	st.mu.Lock()
	t.commit(st, k)
	st.mu.Unlock()
}

func (t *Table) Get(k string) int {
	st := &t.stripes[len(k)%4]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.m[k]
}
`},
		{name: "striped_inversion", src: `
package a

import "sync"

// The violation the striped design must never grow: a table-wide
// operation that holds seqMu while walking into stripe locks inverts
// the stripe.mu -> seqMu order and can deadlock against any writer.

type stripe struct {
	mu sync.Mutex
	m  map[string]int
}

type Table struct {
	seqMu   sync.Mutex
	seqno   int
	stripes [4]stripe
}

func (t *Table) Set(k string) {
	st := &t.stripes[len(k)%4]
	st.mu.Lock()
	t.seqMu.Lock() // want: lockorder
	t.seqno++
	st.m[k] = t.seqno
	t.seqMu.Unlock()
	st.mu.Unlock()
}

func (t *Table) Snapshot() int {
	t.seqMu.Lock()
	defer t.seqMu.Unlock()
	n := 0
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock() // want: lockorder
		n += len(st.m)
		st.mu.Unlock()
	}
	return n
}
`},
		{name: "link_fence_clean", src: `
package a

import "sync"

// The replica-link shape: a table lock guards the link map, each link
// has its own fence lock that its goroutine holds while writing to the
// copy. Halting takes the fence, so the table lock is always released
// first; the goroutine never reaches for the table. No edge between
// the two locks in either direction.

type link struct {
	mu      sync.Mutex
	stopped bool
}

func (l *link) halt() {
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
}

type Table struct {
	mu    sync.Mutex
	links map[int]*link
	high  int
}

func (t *Table) stop(id int) {
	t.mu.Lock()
	l := t.links[id]
	delete(t.links, id)
	t.mu.Unlock()
	if l != nil {
		l.halt()
	}
}

func (t *Table) run(l *link, seqno int) {
	l.mu.Lock()
	if !l.stopped {
		t.high = seqno
	}
	l.mu.Unlock()
}
`},
		{name: "link_fence_inversion", src: `
package a

import "sync"

// What the link design must never grow: halting a link with the table
// lock still held, against a link goroutine that looks the table up
// from inside its fence.

type link struct {
	mu      sync.Mutex
	stopped bool
}

func (l *link) halt() {
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
}

type Table struct {
	mu    sync.Mutex
	links map[int]*link
}

func (t *Table) stop(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.links[id]; l != nil {
		l.halt() // want: lockorder
	}
}

func (t *Table) run(l *link, id int) {
	l.mu.Lock()
	t.mu.Lock() // want: lockorder
	delete(t.links, id)
	t.mu.Unlock()
	l.mu.Unlock()
}
`},
		{name: "goroutine_not_launcher", src: `
package a

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
}

// The goroutine acquires b on its own stack; the launcher holds a but
// never orders a before b. No cycle even though g orders b before a.
func (s *S) f() {
	s.a.Lock()
	go func() {
		s.b.Lock()
		s.b.Unlock()
	}()
	s.a.Unlock()
}

func (s *S) g() {
	s.b.Lock()
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}
`},
		// Where the lock rules read a statement differently (heldWalker's
		// fields), for this rule: a func literal, deferred or not, is
		// walked with nothing held, so its locks count for the enclosing
		// function and its order does not; a select's comm is walked;
		// x++ is skipped.
		{name: "closure_starts_empty", src: heldFixture + `
func (s *S) f() func() { s.a.Lock(); defer s.a.Unlock(); return func() { s.b.Lock(); s.b.Unlock() } }

func (s *S) g() { s.b.Lock(); s.a.Lock(); s.a.Unlock(); s.b.Unlock() }
`},
		{name: "deferred_closure_walked_empty", src: heldFixture + `
func (s *S) f() { s.a.Lock(); defer s.a.Unlock(); defer func() { s.b.Lock(); s.b.Unlock() }() }

func (s *S) g() { s.c.Lock(); s.f(); s.c.Unlock() } // want: lockorder

func (s *S) h() { s.b.Lock(); s.c.Lock(); s.c.Unlock(); s.b.Unlock() } // want: lockorder
`},
		{name: "select_comm_walked", src: heldFixture + `
func (s *S) next() chan int { s.b.Lock(); defer s.b.Unlock(); return s.ch }

func (s *S) f() {
	s.a.Lock()
	defer s.a.Unlock()
	select {
	case <-s.next(): // want: lockorder
	default:
	}
}

func (s *S) g() { s.b.Lock(); s.a.Lock(); s.a.Unlock(); s.b.Unlock() } // want: lockorder
`},
		{name: "incdec_not_walked", src: heldFixture + `
func (s *S) key() int { s.b.Lock(); defer s.b.Unlock(); return 0 }

func (s *S) f() { s.a.Lock(); defer s.a.Unlock(); s.n[s.key()]++ }

func (s *S) g() { s.b.Lock(); s.a.Lock(); s.a.Unlock(); s.b.Unlock() }
`},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) { checkFixture(t, LockOrder, fx) })
	}
}
