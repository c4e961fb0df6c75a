package query

import (
	"fmt"
	"sync"
	"testing"

	"couchgo/internal/executor"
)

// workloadE is YCSB workload E's scan.
const workloadE = "SELECT meta().id AS id FROM usertable WHERE meta().id >= $1 LIMIT $2"

// TestOnePlanManyParameterSets: a parameter is an ordinal of the plan,
// its value bound once per execution, so one cached plan serves
// executions with different parameters at once, each reading its own.
// Eight goroutines run the workload E statement, each over start keys
// and LIMITs of its own, and every answer is its own window.
func TestOnePlanManyParameterSets(t *testing.T) {
	s := newMemStore("usertable")
	e := NewEngine(s)
	mustExec(t, e, "CREATE PRIMARY INDEX ON usertable")
	const docs = 200
	for i := 0; i < docs; i++ {
		s.put("usertable", fmt.Sprintf("user%04d", i), `{"field0": "v"}`)
	}
	id := func(i int) string { return fmt.Sprintf("user%04d", i) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				start, limit := (g*37+i*11)%docs, 1+(g+i)%7
				res, err := e.Execute(workloadE, executor.Options{Params: map[string]any{"1": id(start), "2": float64(limit)}})
				if err != nil {
					t.Error(err)
					return
				}
				if want := min(limit, docs-start); len(res.Rows) != want {
					t.Errorf("from %s LIMIT %d: %d rows, want %d", id(start), limit, len(res.Rows), want)
					return
				}
				for k, row := range res.Rows {
					if got := field(row, "id"); got != id(start+k) {
						t.Errorf("from %s LIMIT %d: row %d is %v, want %s", id(start), limit, k, got, id(start+k))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestUnreadParameterIsNoError: binding an execution's parameters looks
// each one up, but a parameter the execution lacks is an error only
// where an expression reads it, with the message it always had.
func TestUnreadParameterIsNoError(t *testing.T) {
	e, _ := fixture(t)
	for _, stmt := range []string{
		"SELECT CASE WHEN age > 0 THEN name ELSE $never END AS n FROM Profile",
		"SELECT name FROM Profile WHERE age > 100 AND name = $never",
		"SELECT RAW CASE WHEN TRUE THEN 1 ELSE $never END",
	} {
		if _, err := e.Execute(stmt, executor.Options{Params: map[string]any{"1": "unused"}}); err != nil {
			t.Errorf("%s: %v", stmt, err)
		}
	}
	_, err := e.Execute("SELECT name FROM Profile WHERE name = $missing", executor.Options{Params: map[string]any{"1": "x"}})
	if err == nil || err.Error() != "n1ql: no value supplied for parameter $missing" {
		t.Errorf("reading a missing parameter: %v, want n1ql: no value supplied for parameter $missing", err)
	}
}
