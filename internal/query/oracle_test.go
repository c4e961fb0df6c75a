package query

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"couchgo/internal/executor"
	"couchgo/internal/gsi"
	"couchgo/internal/n1ql"
	"couchgo/internal/planner"
	"couchgo/internal/value"
)

// The differential oracle: every generated statement runs over one
// memStore as the reference and as the pipeline, the pipeline twice
// (cold, then from the prepared-plan cache), and all must give
// identical rows in identical order.
//
// The reference side is the materialising execution the demand-driven
// pipeline replaced: the statement is planned without its LIMIT and
// OFFSET, every scan returns its whole span at once (wholeStore, which
// ignores the page size and the continuation), every operator
// therefore sees all of its input, and OFFSET and LIMIT are a slice of
// the finished result. The side under test runs the statement as
// written, so demand, page sizing, continuations and early termination
// are all in play. Parameterised statements have a third, independent
// answer (bruteRows) that uses no span at all, so a bound of the wrong
// type is judged by the WHERE clause as written.

// wholeStore serves every scan as one final page holding the whole
// span.
type wholeStore struct{ *memStore }

func (s wholeStore) ScanIndex(ctx context.Context, keyspace, index string, using n1ql.IndexUsing, opts gsi.ScanOptions) ([]gsi.ScanItem, bool, error) {
	opts.Limit, opts.After = 0, nil
	page, _, err := s.memStore.ScanIndex(ctx, keyspace, index, using, opts)
	return page, false, err
}

// oracleCase is one statement; reverse flips its index scan's direction
// on both sides (the planner never asks for a descending scan itself).
type oracleCase struct {
	stmt    string
	params  map[string]any
	reverse bool
	// order, for a statement with parameters, is the order its index
	// scan delivers rows in; bruteRows sorts by it.
	order []string
}

func planCase(t *testing.T, s *memStore, c oracleCase, strip bool) (p *planner.SelectPlan, limit, offset n1ql.Expr) {
	t.Helper()
	stmt, err := n1ql.Parse(c.stmt)
	if err != nil {
		t.Fatalf("%s: %v", c.stmt, err)
	}
	sel := stmt.(*n1ql.Select)
	if strip {
		limit, offset = sel.Limit, sel.Offset
		sel.Limit, sel.Offset = nil, nil
	}
	if p, err = planner.PlanSelect(sel, s); err != nil {
		t.Fatalf("%s: %v", c.stmt, err)
	}
	if is, ok := p.Scan.(*planner.IndexScan); ok {
		is.Reverse = c.reverse
	}
	return p, limit, offset
}

func constInt(t *testing.T, e n1ql.Expr, params map[string]any, def int) int {
	t.Helper()
	if e == nil {
		return def
	}
	v, err := n1ql.Eval(e, &n1ql.Context{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := value.AsNumber(v)
	return int(f)
}

func referenceRows(t *testing.T, s *memStore, c oracleCase) []any {
	t.Helper()
	p, limit, offset := planCase(t, s, c, true)
	rows, err := executor.ExecuteSelect(p, wholeStore{s}, executor.Options{Params: c.params})
	if err != nil {
		t.Fatalf("reference %s: %v", c.stmt, err)
	}
	rows = rows[min(constInt(t, offset, c.params, 0), len(rows)):]
	return rows[:min(constInt(t, limit, c.params, len(rows)), len(rows))]
}

// pipelineRows runs the statement as written, twice: through the
// engine, whose second execution takes the plan from its cache, or, for
// a reversed scan (a plan only this test can make), by executing the
// one plan again.
func pipelineRows(t *testing.T, s *memStore, e *Engine, c oracleCase) (cold, cached []any) {
	t.Helper()
	opts := executor.Options{Params: c.params}
	run := func() []any {
		res, err := e.Execute(c.stmt, opts)
		if err != nil {
			t.Fatalf("pipeline %s: %v", c.stmt, err)
		}
		return res.Rows
	}
	if c.reverse {
		p, _, _ := planCase(t, s, c, false)
		run = func() []any {
			rows, err := executor.ExecuteSelect(p, s, opts)
			if err != nil {
				t.Fatalf("pipeline %s: %v", c.stmt, err)
			}
			return rows
		}
	}
	return run(), run()
}

// bruteRows answers a parameterised single-keyspace statement with no
// help from the planner: every document goes through the WHERE clause
// as written, the survivors are put in c.order, and OFFSET and LIMIT
// slice the projected result.
func bruteRows(t *testing.T, s *memStore, c oracleCase) []any {
	t.Helper()
	stmt, err := n1ql.Parse(c.stmt)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*n1ql.Select)
	sc := n1ql.NewScope(sel.Alias)
	where := sc.Resolve(sel.Where)
	var order []n1ql.Expr
	for _, src := range c.order {
		e, err := n1ql.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, sc.Resolve(e))
	}
	type hit struct {
		key []any
		obj map[string]any
	}
	var hits []hit
	for id, doc := range s.docs[sel.Keyspace] {
		ctx := sc.NewContext(doc, n1ql.Meta{ID: id})
		ctx.Params = c.params
		eval := func(e n1ql.Expr) any {
			v, err := n1ql.Eval(e, ctx)
			if err != nil {
				t.Fatalf("brute %s: %v", c.stmt, err)
			}
			return v
		}
		if !value.Truthy(eval(where)) {
			continue
		}
		h := hit{obj: map[string]any{}}
		for _, e := range order {
			h.key = append(h.key, eval(e))
		}
		for _, rt := range sel.Projection {
			name := rt.Alias
			if id, ok := rt.Expr.(*n1ql.Ident); ok && name == "" {
				name = id.Name
			}
			if v := eval(sc.Resolve(rt.Expr)); !value.IsMissing(v) {
				h.obj[name] = v
			}
		}
		hits = append(hits, h)
	}
	sort.Slice(hits, func(i, j int) bool { return value.Compare(hits[i].key, hits[j].key) < 0 })
	rows := make([]any, len(hits))
	for i, h := range hits {
		rows[i] = h.obj
	}
	rows = rows[min(constInt(t, sel.Offset, c.params, 0), len(rows)):]
	return rows[:min(constInt(t, sel.Limit, c.params, len(rows)), len(rows))]
}

// oracleStore builds the seeded data set: 600 orders whose indexed
// field n is a number (with many duplicates), NULL, MISSING, a string
// or a boolean, a low-cardinality group g, a mostly-common name, an
// array of tags (1 500-odd array-index entries, so an unbounded scan
// of it spans more than one page of the largest size) and keys into a
// small customers keyspace.
func oracleStore(t *testing.T, rng *rand.Rand) *memStore {
	t.Helper()
	s := newMemStore("o", "c")
	e := NewEngine(s)
	for _, ddl := range []string{
		"CREATE PRIMARY INDEX ON o",
		"CREATE PRIMARY INDEX ON c",
		"CREATE INDEX byN ON o(n)",
		"CREATE INDEX byGN ON o(g, n)",
		"CREATE INDEX byTag ON o(ARRAY t FOR t IN tags END)",
		// Partial, on a predicate only the shadowing cases carry, so no
		// generated statement plans differently for its presence.
		`CREATE INDEX byTagsName ON o(tags, name) WHERE name != "zz"`,
	} {
		mustExec(t, e, ddl)
	}
	for i := 0; i < 40; i++ {
		s.put("c", fmt.Sprintf("c%02d", i), fmt.Sprintf(`{"city": "city%d", "tier": %d}`, i%7, i%3))
	}
	tags := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 600; i++ {
		var f []string
		switch r := rng.Intn(20); {
		case r == 0:
			f = append(f, `"n": null`)
		case r == 1: // MISSING
		case r == 2:
			f = append(f, fmt.Sprintf(`"n": "s%d"`, rng.Intn(5)))
		case r == 3:
			f = append(f, `"n": true`)
		default:
			f = append(f, fmt.Sprintf(`"n": %d`, rng.Intn(60)))
		}
		f = append(f, fmt.Sprintf(`"g": "g%d"`, rng.Intn(6)))
		name := "common"
		if rng.Intn(25) == 0 {
			name = "rare"
		}
		f = append(f, fmt.Sprintf(`"name": %q`, name))
		var ts []string
		for _, tag := range tags {
			if rng.Intn(2) == 0 {
				ts = append(ts, fmt.Sprintf("%q", tag))
			}
		}
		f = append(f, fmt.Sprintf(`"tags": [%s]`, strings.Join(ts, ", ")))
		f = append(f, fmt.Sprintf(`"cust": "c%02d"`, rng.Intn(45))) // some dangle
		f = append(f, fmt.Sprintf(`"custs": ["c%02d", "c%02d"]`, rng.Intn(45), rng.Intn(45)))
		s.put("o", fmt.Sprintf("k%04d", i), "{"+strings.Join(f, ", ")+"}")
	}
	return s
}

// oracleCases generates the statement table: each shape below with
// random constants and a random LIMIT/OFFSET tail.
func oracleCases(rng *rand.Rand) []oracleCase {
	num := func() int { return rng.Intn(64) - 2 }
	key := func() string { return fmt.Sprintf("k%04d", rng.Intn(640)) }
	// tail is LIMIT/OFFSET: small (several pages behind a filter), zero,
	// larger than any span, or absent.
	tail := func() string {
		var sb strings.Builder
		switch rng.Intn(6) {
		case 0:
		case 1:
			sb.WriteString(" LIMIT 0")
		case 2:
			sb.WriteString(" LIMIT 5000")
		default:
			fmt.Fprintf(&sb, " LIMIT %d", 1+rng.Intn(40))
		}
		if sb.Len() > 0 && rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, " OFFSET %d", rng.Intn(30))
		}
		return sb.String()
	}
	// bound is a range parameter: of the key's own type, or a number,
	// NULL, an array, MISSING, a boolean or a string where the key is
	// something else.
	bound := func(own any) any {
		switch rng.Intn(10) {
		case 0:
			return float64(rng.Intn(60))
		case 1:
			return nil
		case 2:
			return []any{"k0100", 3.0}
		case 3:
			return value.Missing
		case 4:
			return rng.Intn(2) == 0
		case 5:
			return fmt.Sprintf("s%d", rng.Intn(5))
		}
		return own
	}
	shapes := []func() oracleCase{
		// Workload E: covering primary range, parameters.
		func() oracleCase {
			return oracleCase{
				stmt:   "SELECT meta().id AS id FROM o WHERE meta().id >= $1 LIMIT $2",
				params: map[string]any{"1": bound(key()), "2": float64(rng.Intn(120))},
				order:  []string{"meta().id"},
			}
		},
		// Covering secondary range, parameters.
		func() oracleCase {
			return oracleCase{
				stmt:   "SELECT n, meta().id AS id FROM o WHERE n >= $lo AND n < $hi LIMIT $lim",
				params: map[string]any{"lo": bound(float64(num())), "hi": bound(float64(num())), "lim": float64(rng.Intn(120))},
				order:  []string{"n", "meta().id"},
			}
		},
		// Fetching primary range.
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT * FROM o WHERE meta().id >= %q AND meta().id < %q", key(), key()) + tail()}
		},
		// Covering secondary range over NULL, MISSING and mixed types.
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT n, meta().id FROM o WHERE n >= %d AND n < %d", num(), num()) + tail()}
		},
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT n FROM o WHERE n > %d", num()) + tail(), reverse: rng.Intn(2) == 0}
		},
		func() oracleCase { return oracleCase{stmt: `SELECT n, meta().id FROM o WHERE n >= "s1"` + tail()} },
		func() oracleCase { return oracleCase{stmt: "SELECT n, meta().id FROM o WHERE n <= 3" + tail()} },
		func() oracleCase { return oracleCase{stmt: "SELECT n, meta().id FROM o WHERE n >= NULL" + tail()} },
		// Fetching secondary range, equality, BETWEEN.
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT n, g, name FROM o WHERE n BETWEEN %d AND %d", num(), num()) + tail(), reverse: rng.Intn(4) == 0}
		},
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT meta().id, g FROM o WHERE n = %d", num()) + tail()}
		},
		// Two >= conjuncts on one key: only the first feeds the span.
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT n, meta().id FROM o WHERE n >= %d AND n >= %d", num(), num()) + tail()}
		},
		// A residual filter that rejects most rows.
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf(`SELECT meta().id, n FROM o WHERE n >= %d AND name = "rare"`, num()) + tail()}
		},
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf(`SELECT meta().id FROM o WHERE meta().id >= %q AND name = "rare"`, key()) + tail()}
		},
		// Composite index: equality prefix + range.
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf(`SELECT g, n FROM o WHERE g = "g%d" AND n > %d`, rng.Intn(7), num()) + tail()}
		},
		// ORDER BY: delivered by the index, not delivered, DESC.
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT n, meta().id FROM o WHERE n >= %d ORDER BY n", num()) + tail()}
		},
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT n, name FROM o WHERE n >= %d ORDER BY name, n", num()) + tail()}
		},
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT n, meta().id FROM o WHERE n < %d ORDER BY n DESC", num()) + tail()}
		},
		// DISTINCT, whose seen-set spans batches.
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT DISTINCT g FROM o WHERE n >= %d", num()) + tail()}
		},
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT DISTINCT n FROM o WHERE n >= %d", num()) + tail()}
		},
		// GROUP BY + HAVING (blocking) under a LIMIT.
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT g, COUNT(*) AS c, SUM(n) AS s FROM o WHERE n >= %d GROUP BY g HAVING COUNT(*) > %d ORDER BY g", num(), rng.Intn(30)) + tail()}
		},
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT COUNT(*) AS c, MAX(n) AS m FROM o WHERE n < %d", num()) + tail()}
		},
		// Key JOIN / LEFT JOIN / NEST / UNNEST under a LIMIT.
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT o.n, c.city FROM o JOIN c ON KEYS o.cust WHERE o.n >= %d", num()) + tail()}
		},
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT o.n, c.city FROM o LEFT JOIN c ON KEYS o.cust WHERE o.n >= %d AND c.tier = 1", num()) + tail()}
		},
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT o.n, cs FROM o NEST c AS cs ON KEYS o.custs WHERE o.n >= %d", num()) + tail()}
		},
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf(`SELECT o.n, t FROM o UNNEST o.tags AS t WHERE o.n >= %d AND t != "a"`, num()) + tail()}
		},
		// Array index: several entries per document.
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf(`SELECT meta().id, n FROM o WHERE ANY t IN tags SATISFIES t = %q END`, string(rune('a'+rng.Intn(6)))) + tail(), reverse: rng.Intn(3) == 0}
		},
		// USE KEYS and FROM-less.
		func() oracleCase {
			return oracleCase{stmt: fmt.Sprintf("SELECT n FROM o USE KEYS [%q, %q, %q, \"ghost\"]", key(), key(), key()) + tail()}
		},
		func() oracleCase { return oracleCase{stmt: "SELECT 1 + 1 AS two" + tail()} },
		// Full scans: more than one page of the largest size.
		func() oracleCase { return oracleCase{stmt: "SELECT meta().id FROM o" + tail()} },
	}
	var out []oracleCase
	for len(out) < 240 {
		for _, shape := range shapes {
			out = append(out, shape())
		}
	}
	// A comprehension variable named like an indexed field shadows it:
	// byTagsName holds tags and name, yet must not cover a statement whose
	// `name` is an element of tags. (Fixed bounds: the generated table
	// above keeps its random stream.)
	for _, lo := range []any{[]any{}, []any{"b"}, nil, 7.0} {
		out = append(out, oracleCase{
			stmt:   `SELECT meta().id AS id FROM o WHERE name != "zz" AND tags >= $1 AND ANY name IN tags SATISFIES name >= "e" END LIMIT $2`,
			params: map[string]any{"1": lo, "2": 50.0},
			order:  []string{"tags", "name", "meta().id"},
		})
	}
	return out
}

func TestDifferentialOracle(t *testing.T) {
	for _, seed := range []int64{1, 20160626} {
		rng := rand.New(rand.NewSource(seed))
		s := oracleStore(t, rng)
		e := NewEngine(s)
		cases := oracleCases(rng)
		nonEmpty := 0
		for _, c := range cases {
			want := referenceRows(t, s, c)
			cold, cached := pipelineRows(t, s, e, c)
			if len(want) > 0 {
				nonEmpty++
			}
			answers := map[string][]any{"cold": cold, "cached": cached}
			if c.params != nil {
				answers["brute force"] = bruteRows(t, s, c)
			}
			for side, got := range answers {
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Errorf("seed %d, %s: %s %v reverse=%v\n got %d rows: %.300v\nwant %d rows: %.300v",
						seed, side, c.stmt, c.params, c.reverse, len(got), got, len(want), want)
				}
			}
		}
		if len(cases) < 200 || nonEmpty < len(cases)/2 {
			t.Errorf("seed %d: %d statements, %d with rows: the table is too thin", seed, len(cases), nonEmpty)
		}
	}
}

// TestSpanDoesNotImplyItsConjunct decides whether the planner may drop
// `meta().id >= $1` once it has turned it into the span [$1, ∞): it may
// not. With the residual filter removed from the plan the answer stays
// right for a bound that collates (a string, a number, an array), but a
// NULL or MISSING bound opens the span over every entry while the
// conjunct, comparing against NULL or MISSING, accepts none.
func TestSpanDoesNotImplyItsConjunct(t *testing.T) {
	s := oracleStore(t, rand.New(rand.NewSource(1)))
	for _, tc := range []struct {
		bound any
		exact bool
	}{
		{"k0300", true}, {7.0, true}, {[]any{"k0300"}, true}, {nil, false}, {value.Missing, false},
	} {
		c := oracleCase{
			stmt:   "SELECT meta().id AS id FROM o WHERE meta().id >= $1 LIMIT $2",
			params: map[string]any{"1": tc.bound, "2": 25.0},
			order:  []string{"meta().id"},
		}
		p, _, _ := planCase(t, s, c, false)
		if p.Where == nil {
			t.Fatal("the planner dropped the conjunct its span was made from")
		}
		p.Where = nil
		spanOnly, err := executor.ExecuteSelect(p, s, executor.Options{Params: c.params})
		if err != nil {
			t.Fatal(err)
		}
		if got := reflect.DeepEqual(spanOnly, bruteRows(t, s, c)); got != tc.exact {
			t.Errorf("bound %v: span alone exact = %v, want %v", tc.bound, got, tc.exact)
		}
	}
}
