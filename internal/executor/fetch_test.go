package executor

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"couchgo/internal/n1ql"
)

// errUnavailable stands for any failure of a fetch other than a missing
// document: a vBucket mid-failover, a cancelled request.
var errUnavailable = errors.New("vbucket unavailable")

// failingDS is a stubDS whose Fetch of one document fails with
// errUnavailable.
type failingDS struct {
	*stubDS
	failing string
}

func (s *failingDS) Fetch(ctx context.Context, keyspace, id string) (any, n1ql.Meta, error) {
	if id == s.failing {
		return nil, n1ql.Meta{}, errUnavailable
	}
	return s.stubDS.Fetch(ctx, keyspace, id)
}

// abc holds documents a, b and c, b's fetch failing when failing is
// "b".
func abc(failing string) *failingDS {
	ds := &failingDS{stubDS: newStubDS(), failing: failing}
	for i, id := range []string{"a", "b", "c"} {
		ds.put(id, fmt.Sprintf(`{"n": %d, "ref": "x"}`, i))
	}
	ds.put("x", `{"m": 9}`)
	return ds
}

// TestFailedFetchFailsTheSelect: only a missing document drops its row.
// A document whose fetch failed may exist, so answering without it is a
// wrong answer, not a smaller one.
func TestFailedFetchFailsTheSelect(t *testing.T) {
	p := planOf(t, `SELECT n FROM b WHERE n >= 0`)
	rows, err := ExecuteSelect(p, abc(""), Options{})
	if err != nil || len(rows) != 3 {
		t.Fatalf("no failure: %v %v", rows, err)
	}
	rows, err = ExecuteSelect(p, abc("b"), Options{})
	if !errors.Is(err, errUnavailable) {
		t.Errorf("b's fetch failed: answered %v, err %v", rows, err)
	}
}

// TestFailedFetchFailsTheJoin: an ON KEYS join whose inner fetch fails
// fails the statement; a missing inner document is no match.
func TestFailedFetchFailsTheJoin(t *testing.T) {
	p := planOf(t, `SELECT o.n, i.m FROM b o USE KEYS ["a", "c"] JOIN b i ON KEYS o.ref`)
	rows, err := ExecuteSelect(p, abc(""), Options{})
	if err != nil || len(rows) != 2 {
		t.Fatalf("no failure: %v %v", rows, err)
	}
	rows, err = ExecuteSelect(p, abc("x"), Options{})
	if !errors.Is(err, errUnavailable) {
		t.Errorf("the inner fetch failed: answered %v, err %v", rows, err)
	}
	p = planOf(t, `SELECT o.n FROM b o USE KEYS ["a", "c"] JOIN b i ON KEYS "ghost"`)
	if rows, err = ExecuteSelect(p, abc(""), Options{}); err != nil || len(rows) != 0 {
		t.Errorf("a missing inner document: %v %v, want no rows", rows, err)
	}
}

// TestFailedFetchFailsTheUpdate: an UPDATE whose target's fetch fails
// fails, rather than updating the others and counting them.
func TestFailedFetchFailsTheUpdate(t *testing.T) {
	stmt, err := n1ql.Parse(`UPDATE b SET n = 7 WHERE n >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteUpdate(planMutation(t, stmt), abc(""), Options{})
	if err != nil || res.MutationCount != 3 {
		t.Fatalf("no failure: %+v %v", res, err)
	}
	res, err = ExecuteUpdate(planMutation(t, stmt), abc("b"), Options{})
	if !errors.Is(err, errUnavailable) {
		t.Errorf("b's fetch failed: %+v, err %v", res, err)
	}
}
