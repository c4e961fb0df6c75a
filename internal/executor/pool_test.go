package executor

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"couchgo/internal/n1ql"
)

// poolDocs holds k00…k39, each naming the next in ref.
func poolDocs() *stubDS {
	ds := newStubDS()
	for i := 0; i < 40; i++ {
		ds.put(fmt.Sprintf("k%02d", i), fmt.Sprintf(`{"n": %d, "g": %d, "arr": [%d, %d], "ref": "k%02d"}`, i, i%4, i, -i, (i+1)%40))
	}
	return ds
}

// TestRecycledExecutionKeepsItsAnswer runs one statement shape per user
// of the executor's arena from 8 goroutines at once, so executors and
// their arenas pass between statements of every shape. Each answer must
// equal the one the shape gave alone, and an answer kept from the first
// round must be unchanged after every later execution: no part of it
// may live in memory a later execution reuses.
func TestRecycledExecutionKeepsItsAnswer(t *testing.T) {
	ds := poolDocs()
	failing := &failingDS{stubDS: ds, failing: "k20"}
	params := map[string]any{"1": "k12", "2": 10}
	sel := func(src string, ds Datastore) func(*stubDS) (any, error) {
		p := planOf(t, src)
		return func(*stubDS) (any, error) {
			rows, err := ExecuteSelect(p, ds, Options{Params: params})
			return rows, err
		}
	}
	upd, err := n1ql.Parse(`UPDATE b SET seen = TRUE WHERE n < 8 RETURNING meta().id AS id, n, seen`)
	if err != nil {
		t.Fatal(err)
	}
	mp := planMutation(t, upd)
	shapes := []struct {
		name string
		run  func(own *stubDS) (any, error) // own is the goroutine's store for DML
	}{
		{"covering scan", sel(`SELECT meta().id AS id FROM b WHERE meta().id >= $1 LIMIT $2`, ds)},
		{"fetch", sel(`SELECT n, g FROM b WHERE n >= 30`, ds)},
		{"star", sel(`SELECT * FROM b WHERE meta().id >= "k35"`, ds)},
		{"raw", sel(`SELECT RAW arr FROM b WHERE n < 5`, ds)},
		{"meta", sel(`SELECT meta() AS m, meta().id AS id FROM b LIMIT 5`, ds)},
		{"order by", sel(`SELECT n FROM b ORDER BY n DESC LIMIT 7`, ds)},
		{"group by", sel(`SELECT g, COUNT(*) AS c, SUM(n) AS s FROM b GROUP BY g`, ds)},
		{"unnest", sel(`SELECT meta(b).id AS id, x FROM b UNNEST b.arr AS x WHERE b.n < 6`, ds)},
		{"join", sel(`SELECT o.n, i.n AS m FROM b o USE KEYS ["k01", "k02", "k39"] JOIN b i ON KEYS o.ref`, ds)},
		{"distinct", sel(`SELECT DISTINCT g FROM b`, ds)},
		{"from-less", sel(`SELECT 1 AS one, [$1, $2] AS both`, ds)},
		{"failed fetch", sel(`SELECT n FROM b WHERE n >= 0`, failing)},
		{"dml target", func(own *stubDS) (any, error) {
			res, err := ExecuteUpdate(mp, own, Options{})
			if err != nil {
				return nil, err
			}
			return []any{float64(res.MutationCount), res.Returning}, nil
		}},
	}
	// answer is what a shape gave: its value, or its error's text.
	answer := func(i int, own *stubDS) any {
		v, err := shapes[i].run(own)
		if err != nil {
			return err.Error()
		}
		return v
	}
	want := make([]any, len(shapes))
	for i := range shapes {
		want[i] = answer(i, poolDocs())
	}
	if _, ok := want[len(want)-2].(string); !ok {
		t.Fatalf("the failing fetch answered %v", want[len(want)-2])
	}
	if dml, ok := want[len(want)-1].([]any); !ok || dml[0] != 8.0 {
		t.Fatalf("the update answered %v", want[len(want)-1])
	}

	const goroutines, rounds = 8, 16
	kept := make([][]any, goroutines) // each goroutine's first answers
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := poolDocs()
			for r := range rounds {
				for i := range shapes {
					got := answer(i, own)
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d round %d, %s: %v, want %v", g, r, shapes[i].name, got, want[i])
					}
					if r == 0 {
						kept[g] = append(kept[g], got)
					}
				}
			}
		}()
	}
	wg.Wait()
	for g := range kept {
		for i, got := range kept[g] {
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: goroutine %d's first answer is now %v, want %v", shapes[i].name, g, got, want[i])
			}
		}
	}
}

// TestFreedExecutorPinsNothing: an executor handed back to the pool
// keeps its arena and context but no value in them, so it pins
// no document, key or map. A chunk past maxBatch rows is dropped: here
// the row headers of 1 064 groups.
func TestFreedExecutorPinsNothing(t *testing.T) {
	ds, big := poolDocs(), poolDocs()
	for i := 40; i < 40+maxBatch; i++ {
		big.put(fmt.Sprintf("k%04d", i), `{}`)
	}
	params := map[string]any{"1": "k10"}
	for _, c := range []struct {
		src  string
		ds   *stubDS
		rows bool // the row headers' chunk is kept, not dropped
	}{
		{`SELECT meta().id AS id FROM b WHERE meta().id >= $1 LIMIT 5`, ds, true},
		{`SELECT n FROM b WHERE meta().id >= $1 AND n < 20`, ds, true},
		{`SELECT x FROM b UNNEST b.arr AS x WHERE b.n < 6`, ds, true},
		{`SELECT o.n, i.n AS m FROM b o USE KEYS ["k01", "k02"] JOIN b i ON KEYS o.ref`, ds, true},
		{`SELECT g, COUNT(*) AS c FROM b WHERE n >= 0 GROUP BY g`, ds, true},
		{`SELECT meta().id AS id FROM b ORDER BY LOWER(meta().id)`, big, true},
		{`SELECT meta().id AS id FROM b GROUP BY meta().id`, big, false},
	} {
		ex := newExec(planOf(t, c.src), c.ds, Options{Params: params})
		rows, err := ex.run()
		if err != nil || len(rows) == 0 {
			t.Fatalf("%s: %d rows, %v", c.src, len(rows), err)
		}
		ex.free()
		if (len(ex.arena.rows.chunk) > 0) != c.rows || c.rows && len(ex.arena.slots.chunk) == 0 {
			t.Errorf("%s: kept %d slots and %d row headers", c.src, len(ex.arena.slots.chunk), len(ex.arena.rows.chunk))
		}
		if ex.ctx.Slots != nil || ex.ctx.Params != nil {
			t.Errorf("%s: the context still holds a row or parameters", c.src)
		}
		pinned := slicesHold(ex.arena.slots.chunk, nil) + slicesHold(ex.arena.metas.chunk, n1ql.Meta{})
		for _, r := range ex.arena.rows.chunk {
			if r != nil {
				pinned++
			}
		}
		if pinned > 0 {
			t.Errorf("%s: the freed executor holds %d values", c.src, pinned)
		}
		if ex.p != nil || ex.ds != nil || ex.consts != nil || ex.scan.page != nil {
			t.Errorf("%s: the freed executor still refers to its execution", c.src)
		}
	}
}

// slicesHold counts the elements of s that are not zero.
func slicesHold[T comparable](s []T, zero T) int {
	n := 0
	for _, v := range s {
		if v != zero {
			n++
		}
	}
	return n
}
