package lint

import "testing"

func TestUnlockedEscape(t *testing.T) {
	fixtures := []fixture{
		{name: "guarded_map", src: `
package a

import "sync"

type T struct {
	mu sync.Mutex
	m  map[string]int
}

func (t *T) Set(k string, v int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[k] = v
}

func (t *T) BadRead(k string) int {
	return t.m[k] // want: unlockedescape
}

func (t *T) BadWrite() {
	t.m = nil // want: unlockedescape
}

func (t *T) getLocked(k string) int {
	return t.m[k]
}

func (t *T) Good(k string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.getLocked(k)
}
`},
		{name: "any_of_several_guards_suffices", src: `
package a

import "sync"

type C struct {
	mu   sync.Mutex
	rb   sync.Mutex
	bkts map[string]int
}

func (c *C) add(name string) {
	c.mu.Lock()
	c.rb.Lock()
	c.bkts[name] = 1
	c.rb.Unlock()
	c.mu.Unlock()
}

func (c *C) getUnderMu(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bkts[name]
}

func (c *C) countUnderRb() int {
	c.rb.Lock()
	defer c.rb.Unlock()
	return len(c.bkts)
}

func (c *C) bad(name string) int {
	return c.bkts[name] // want: unlockedescape
}
`},
		{name: "unguarded_field_not_flagged", src: `
package a

import "sync"

type U struct {
	mu   sync.Mutex
	n    int
	name string
}

func (u *U) Init(s string) {
	u.name = s
}

func (u *U) Incr() {
	u.mu.Lock()
	u.n++
	u.mu.Unlock()
}

func (u *U) Name() string {
	return u.name
}

func (u *U) BadN() int {
	return u.n // want: unlockedescape
}
`},
		{name: "no_mutex_field_no_inference", src: `
package a

type P struct {
	n int
}

func (p *P) Set(v int) {
	p.n = v
}

func (p *P) Get() int {
	return p.n
}
`},
		// Where the lock rules read a statement differently (heldWalker's
		// fields), for this rule: a func literal, deferred or not, starts
		// with a copy of what its method holds; a select's comm is not
		// walked; x++ is a write.
		{name: "closure_inherits_held", src: heldFixture + `
func (s *S) each(f func()) { f() }

func (s *S) Set(k string) { s.mu.Lock(); defer s.mu.Unlock(); s.each(func() { s.m[k] = 1 }) }

func (s *S) Get(k string) int { return s.m[k] } // want: unlockedescape
`},
		{name: "deferred_closure_inherits_held", src: heldFixture + `
func (s *S) Set(k string) { s.mu.Lock(); defer s.mu.Unlock(); defer func() { s.m[k] = 1 }() }

func (s *S) Get(k string) int { return s.m[k] } // want: unlockedescape
`},
		{name: "select_comm_not_walked", src: heldFixture + `
func (s *S) Set(c chan int) { s.mu.Lock(); s.ch = c; s.mu.Unlock() }

func (s *S) Poll() { select { case <-s.ch: default: } }
`},
		{name: "incdec_is_a_write", src: heldFixture + `
func (s *S) Incr() { s.mu.Lock(); s.n[0]++; s.mu.Unlock() }

func (s *S) Bad() { s.n[0]++ } // want: unlockedescape
`},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) { checkFixture(t, UnlockedEscape, fx) })
	}
}
