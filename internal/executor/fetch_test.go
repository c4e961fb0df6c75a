package executor

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"couchgo/internal/n1ql"
	"couchgo/internal/planner"
	"couchgo/internal/value"
)

// errUnavailable stands for any failure of a fetch other than a missing
// document: a vBucket mid-failover, a cancelled request.
var errUnavailable = errors.New("vbucket unavailable")

// failingDS is a stubDS whose Fetch of one document fails with
// errUnavailable, and whose writes of another do.
type failingDS struct {
	*stubDS
	failing, failWrite string
}

func (s *failingDS) Fetch(ctx context.Context, keyspace, id string) (any, n1ql.Meta, error) {
	if id == s.failing {
		return nil, n1ql.Meta{}, errUnavailable
	}
	return s.stubDS.Fetch(ctx, keyspace, id)
}

func (s *failingDS) UpdateDoc(ctx context.Context, keyspace, id string, doc any, cas uint64) error {
	if id == s.failWrite {
		return errUnavailable
	}
	return s.stubDS.UpdateDoc(ctx, keyspace, id, doc, cas)
}

func (s *failingDS) DeleteDoc(ctx context.Context, keyspace, id string, cas uint64) error {
	if id == s.failWrite {
		return errUnavailable
	}
	return s.stubDS.DeleteDoc(ctx, keyspace, id, cas)
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

// TestFailedWriteFailsTheStatement: an UPDATE or DELETE whose write of
// one target fails fails, naming the document, rather than counting the
// others as if that one had changed concurrently.
func TestFailedWriteFailsTheStatement(t *testing.T) {
	for _, src := range []string{`UPDATE b SET n = 7 WHERE n >= 0`, `DELETE FROM b WHERE n >= 0`} {
		stmt, err := n1ql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		ds := abc("")
		ds.failWrite = "b"
		res, err := execMutation(stmt, planMutation(t, stmt), ds)
		if !errors.Is(err, errUnavailable) || !strings.Contains(fmt.Sprint(err), `"b"`) {
			t.Errorf("%s: b's write failed: %+v, err %v", src, res, err)
		}
	}
}

// execMutation runs a planned UPDATE or DELETE.
func execMutation(stmt n1ql.Statement, mp *planner.MutationPlan, ds Datastore) (*MutationResult, error) {
	if _, ok := stmt.(*n1ql.Delete); ok {
		return ExecuteDelete(mp, ds, Options{})
	}
	return ExecuteUpdate(mp, ds, Options{})
}

// racingDS is a stubDS on which someone else writes a document between
// the statement's fetch of it and its write, for the first writes of it.
type racingDS struct {
	*stubDS
	id    string
	races int
	write func(doc any) any // the other writer's change
}

func (s *racingDS) race(id string) {
	if id == s.id && s.races > 0 {
		s.races--
		s.mu.Lock()
		s.store(id, s.write(value.Copy(s.docs[id])))
		s.mu.Unlock()
	}
}

func (s *racingDS) UpdateDoc(ctx context.Context, keyspace, id string, doc any, cas uint64) error {
	s.race(id)
	return s.stubDS.UpdateDoc(ctx, keyspace, id, doc, cas)
}

func (s *racingDS) DeleteDoc(ctx context.Context, keyspace, id string, cas uint64) error {
	s.race(id)
	return s.stubDS.DeleteDoc(ctx, keyspace, id, cas)
}

// TestConcurrentWriteIsKept: a write that lands between a statement's
// read of a document and its write survives. The statement reads the
// document again and applies itself to the new version while WHERE still
// holds, and leaves it alone once WHERE does not.
func TestConcurrentWriteIsKept(t *testing.T) {
	setN := func(n float64) func(any) any {
		return func(doc any) any { doc.(map[string]any)["n"] = n; return doc }
	}
	for _, c := range []struct {
		src   string
		races int
		write func(any) any
		count int
		b     any // b's n afterwards, nil when deleted
	}{
		{`UPDATE b SET n = n + 1 WHERE n >= 0`, 1, setN(100), 3, 101.0},
		{`UPDATE b SET n = n + 1 WHERE n >= 0`, 3, setN(100), 3, 101.0},
		{`UPDATE b SET n = n + 1 WHERE n >= 0`, 1, setN(-5), 2, -5.0},
		{`DELETE FROM b WHERE n < 10`, 1, setN(100), 2, 100.0},
		{`DELETE FROM b WHERE n < 10`, 1, setN(5), 3, nil},
	} {
		stmt, err := n1ql.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		ds := &racingDS{stubDS: abc("").stubDS, id: "b", races: c.races, write: c.write}
		res, err := execMutation(stmt, planMutation(t, stmt), ds)
		if err != nil || res.MutationCount != c.count {
			t.Errorf("%s, %d races: %+v %v, want %d mutations", c.src, c.races, res, err, c.count)
			continue
		}
		var n any
		if doc, ok := ds.docs["b"]; ok {
			n = doc.(map[string]any)["n"]
		}
		if n != c.b {
			t.Errorf("%s, %d races: b's n is %v, want %v", c.src, c.races, n, c.b)
		}
	}
	// A document that never stops changing fails the statement.
	stmt, _ := n1ql.Parse(`UPDATE b SET n = n + 1 WHERE n >= 0`)
	ds := &racingDS{stubDS: abc("").stubDS, id: "b", races: maxRereads, write: setN(100)}
	if res, err := ExecuteUpdate(planMutation(t, stmt), ds, Options{}); !errors.Is(err, ErrChanged) {
		t.Errorf("b changed before every write: %+v %v", res, err)
	}
}
