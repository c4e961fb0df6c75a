package lint

import (
	"go/ast"
	"go/parser"
	"go/types"
	"testing"
)

// TestCtxFlow exercises the context-consumption rule: sleeps in ctx
// functions, unconsumed blocking ops, the inter-procedural
// dropped-before-a-call case, and the consumption credits (Done
// select, pass-through to the real blocker, goroutine boundary).
func TestCtxFlow(t *testing.T) {
	fixtures := []fixture{
		{name: "sleep_always_flagged", src: `
package a

import (
	"context"
	"time"
)

func f(ctx context.Context) {
	time.Sleep(time.Second) // want: ctxflow
}
`},
		{name: "retry_backoff_sleep", src: `
package a

import (
	"context"
	"time"
)

// The real-tree bug shape: a retry loop that backs off with a bare
// sleep, parking a cancelled request between attempts.
func retryOp(ctx context.Context, attempts int) error {
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(time.Duration(i) * time.Millisecond) // want: ctxflow
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}
`},
		{name: "unconsumed_chan_recv", src: `
package a

import "context"

func recv(ctx context.Context, ch chan int) int {
	return <-ch // want: ctxflow
}
`},
		{name: "select_with_done_clean", src: `
package a

import "context"

func ok(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}
`},
		{name: "calls_blocking_helper_without_ctx", src: `
package a

import "context"

func helper(ch chan int) int {
	return <-ch
}

func f(ctx context.Context, ch chan int) int {
	return helper(ch) // want: ctxflow
}
`},
		{name: "pass_through_credit_clean", src: `
package a

import "context"

func blocker(ctx context.Context, ch chan int) {
	select {
	case <-ch:
	case <-ctx.Done():
	}
}

// Forwarding ctx to the function that does the blocking counts as
// consumption: the wait is cancellable even though this frame never
// touches Done itself.
func wrapper(ctx context.Context, ch chan int) {
	blocker(ctx, ch)
	<-ch
}
`},
		{name: "goroutine_boundary_clean", src: `
package a

import "context"

// The goroutine blocks on its own stack; the launcher returns
// immediately and holds no obligation to consume ctx for it.
func launch(ctx context.Context, ch chan int) {
	go func() {
		<-ch
	}()
}
`},
		{name: "external_callee_credit_clean", src: `
package a

import (
	"context"
	"net"
)

type dialer interface {
	DialContext(ctx context.Context, network, addr string) (net.Conn, error)
}

// Handing ctx to an interface method (body unknown) is consumption
// credit; the subsequent socket write is reachable only on the
// ctx-aware path.
func connect(ctx context.Context, d dialer, payload []byte) error {
	c, err := d.DialContext(ctx, "tcp", "host:11210")
	if err != nil {
		return err
	}
	_, err = c.Write(payload)
	return err
}
`},
		{name: "pragma_suppresses", src: `
package a

import (
	"context"
	"time"
)

func slow(ctx context.Context) {
	time.Sleep(time.Millisecond) //couchvet:ignore ctxflow -- fixture: bounded settle delay
}
`},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) { checkFixture(t, CtxFlow, fx) })
	}
}

// fixtureImporter serves the fixture packages checked so far and leaves
// everything else to the shared source importer.
type fixtureImporter map[string]*types.Package

func (m fixtureImporter) Import(path string) (*types.Package, error) {
	if p := m[path]; p != nil {
		return p, nil
	}
	return testImporter.Import(path)
}

// TestCtxFlowUnloadedCallee is the gsi.Service.Scan shape: ctx goes to
// an in-module function of another package (feed.Wait there), then the
// caller blocks on a WaitGroup. The callee blocks on the ctx, so the
// caller is clean when both packages are loaded, and the verdict must
// be the same when the load pattern names the caller's package only
// (`couchvet ./internal/gsi/...`): a body that was not loaded is a body
// the rule cannot see, whichever module it belongs to.
func TestCtxFlowUnloadedCallee(t *testing.T) {
	checked := fixtureImporter{}
	check := func(path, src string) *Package {
		t.Helper()
		file, err := parser.ParseFile(testFset, path+"/fixture.go", src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		info := NewInfo()
		tpkg, err := (&types.Config{Importer: checked}).Check(path, testFset, []*ast.File{file}, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", path, err)
		}
		checked[path] = tpkg
		return &Package{Path: path, Fset: testFset, Files: []*ast.File{file}, Types: tpkg, Info: info}
	}
	callee := check(ModulePath+"/internal/fixturefeed", `
package fixturefeed

import "context"

func Wait(ctx context.Context, applied chan struct{}) error {
	select {
	case <-applied:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
`)
	caller := check(ModulePath+"/internal/fixturegsi", `
package fixturegsi

import (
	"context"
	"sync"

	"`+ModulePath+`/internal/fixturefeed"
)

func Scan(ctx context.Context, applied chan struct{}, parts int) error {
	if err := fixturefeed.Wait(ctx, applied); err != nil {
		return err
	}
	var wg sync.WaitGroup
	for i := 0; i < parts; i++ {
		wg.Add(1)
		go wg.Done()
	}
	wg.Wait()
	return nil
}
`)
	for name, pkgs := range map[string][]*Package{
		"caller's package alone": {caller},
		"both packages":          {caller, callee},
	} {
		for _, d := range Run(pkgs, []*Analyzer{CtxFlow}) {
			t.Errorf("%s loaded: unexpected finding %s: %s", name, d.Pos, d.Message)
		}
	}
}
