package views

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"couchgo/internal/dcp"
	"couchgo/internal/memcproto"
	"couchgo/internal/storage"
	"couchgo/internal/value"
	"couchgo/internal/vbucket"
)

// harness: a view engine attached to a couple of real vBuckets.
type harness struct {
	engine *Engine
	vbs    []*vbucket.VBucket
}

func newHarness(t *testing.T, nvb int) *harness {
	t.Helper()
	h := &harness{engine: NewEngine()}
	dir := t.TempDir()
	for i := 0; i < nvb; i++ {
		f, err := storage.Open(filepath.Join(dir, fmt.Sprintf("vb%d.couch", i)), false)
		if err != nil {
			t.Fatal(err)
		}
		vb := vbucket.New(i, f, vbucket.Active, vbucket.Config{})
		h.vbs = append(h.vbs, vb)
		if err := h.engine.AttachVB(i, vb.Producer()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { vb.Close(); f.Close() })
	}
	t.Cleanup(h.engine.Close)
	return h
}

// put writes doc JSON to the vbucket chosen by simple round robin.
func (h *harness) put(t *testing.T, vb int, key, doc string) {
	t.Helper()
	if _, err := h.vbs[vb].Set(context.Background(), key, []byte(doc), 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// waitVector builds the stale=false wait vector from current state.
func (h *harness) waitVector() map[int]uint64 {
	out := map[int]uint64{}
	for _, vb := range h.vbs {
		out[vb.ID] = vb.HighSeqno()
	}
	return out
}

func (h *harness) queryFresh(t *testing.T, name string, opts QueryOptions) []Row {
	t.Helper()
	opts.Stale = StaleFalse
	opts.WaitSeqnos = h.waitVector()
	rows, err := h.engine.Query(context.Background(), name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// profileView is the paper's §3.1.2 example: emit(doc.name, doc.email)
// guarded by if (doc.name).
var profileView = Definition{
	Name: "profile",
	Map: MapSpec{
		Filter: "doc.name IS NOT MISSING",
		Key:    "doc.name",
		Value:  "doc.email",
	},
}

func TestPaperProfileViewExample(t *testing.T) {
	h := newHarness(t, 2)
	if err := h.engine.Define(profileView); err != nil {
		t.Fatal(err)
	}
	h.put(t, 0, "borkar123", `{"name": "Dipti", "email": "dipti@couchbase.com"}`)
	h.put(t, 1, "mayuram456", `{"name": "Ravi", "email": "ravi@couchbase.com"}`)
	h.put(t, 0, "anon", `{"email": "no-name@x.com"}`) // filtered out

	// REST query ?key="Dipti"&stale=false
	rows := h.queryFresh(t, "profile", QueryOptions{Key: "Dipti", HasKey: true})
	if len(rows) != 1 {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0].Value != "dipti@couchbase.com" || rows[0].ID != "borkar123" {
		t.Errorf("row: %+v", rows[0])
	}
	// The filtered doc emitted nothing.
	all := h.queryFresh(t, "profile", QueryOptions{})
	if len(all) != 2 {
		t.Fatalf("all rows: %+v", all)
	}
	// Sorted by key: Dipti before Ravi.
	if all[0].Key != "Dipti" || all[1].Key != "Ravi" {
		t.Errorf("order: %+v", all)
	}
}

func TestViewUpdatesAndDeletes(t *testing.T) {
	h := newHarness(t, 1)
	if err := h.engine.Define(profileView); err != nil {
		t.Fatal(err)
	}
	h.put(t, 0, "u1", `{"name": "Alice", "email": "a@x.com"}`)
	rows := h.queryFresh(t, "profile", QueryOptions{})
	if len(rows) != 1 || rows[0].Key != "Alice" {
		t.Fatalf("initial: %+v", rows)
	}
	// Rename: old entry must disappear.
	h.put(t, 0, "u1", `{"name": "Alicia", "email": "a@x.com"}`)
	rows = h.queryFresh(t, "profile", QueryOptions{})
	if len(rows) != 1 || rows[0].Key != "Alicia" {
		t.Fatalf("after update: %+v", rows)
	}
	// Update that stops emitting.
	h.put(t, 0, "u1", `{"email": "a@x.com"}`)
	rows = h.queryFresh(t, "profile", QueryOptions{})
	if len(rows) != 0 {
		t.Fatalf("after unname: %+v", rows)
	}
	// Re-add then delete the doc.
	h.put(t, 0, "u1", `{"name": "Alice", "email": "a@x.com"}`)
	if _, err := h.vbs[0].Do(context.Background(), &vbucket.Op{Code: memcproto.OpDelete, Key: "u1"}); err != nil {
		t.Fatal(err)
	}
	rows = h.queryFresh(t, "profile", QueryOptions{})
	if len(rows) != 0 {
		t.Fatalf("after delete: %+v", rows)
	}
}

func TestViewRangeQueries(t *testing.T) {
	h := newHarness(t, 1)
	if err := h.engine.Define(Definition{
		Name: "byAge",
		Map:  MapSpec{Key: "doc.age", Value: "doc.name"},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.put(t, 0, fmt.Sprintf("u%d", i), fmt.Sprintf(`{"age": %d, "name": "user%d"}`, 20+i, i))
	}
	// Range [22, 25) exclusive end.
	rows := h.queryFresh(t, "byAge", QueryOptions{
		StartKey: 22.0, HasStart: true, EndKey: 25.0, HasEnd: true,
	})
	if len(rows) != 3 || rows[0].Key != 22.0 || rows[2].Key != 24.0 {
		t.Fatalf("range: %+v", rows)
	}
	// Inclusive end: "stopping on the last instance of key B".
	rows = h.queryFresh(t, "byAge", QueryOptions{
		StartKey: 22.0, HasStart: true, EndKey: 25.0, HasEnd: true, InclusiveEnd: true,
	})
	if len(rows) != 4 || rows[3].Key != 25.0 {
		t.Fatalf("inclusive range: %+v", rows)
	}
	// Descending.
	rows = h.queryFresh(t, "byAge", QueryOptions{Descending: true, Limit: 3})
	if len(rows) != 3 || rows[0].Key != 29.0 || rows[2].Key != 27.0 {
		t.Fatalf("descending: %+v", rows)
	}
	// Limit and skip.
	rows = h.queryFresh(t, "byAge", QueryOptions{Skip: 2, Limit: 2})
	if len(rows) != 2 || rows[0].Key != 22.0 {
		t.Fatalf("skip/limit: %+v", rows)
	}
	// Multi-key.
	rows = h.queryFresh(t, "byAge", QueryOptions{Keys: []any{21.0, 28.0}})
	if len(rows) != 2 {
		t.Fatalf("multi-key: %+v", rows)
	}
}

func TestViewReduceCount(t *testing.T) {
	h := newHarness(t, 2)
	if err := h.engine.Define(Definition{
		Name:   "countByCity",
		Map:    MapSpec{Key: "doc.city", Value: "doc.pop"},
		Reduce: "_count",
	}); err != nil {
		t.Fatal(err)
	}
	cities := []string{"SF", "NY", "SF", "LA", "SF", "NY"}
	for i, c := range cities {
		h.put(t, i%2, fmt.Sprintf("d%d", i), fmt.Sprintf(`{"city": %q, "pop": %d}`, c, i))
	}
	// Total count via pre-computed annotations.
	rows := h.queryFresh(t, "countByCity", QueryOptions{Reduce: true})
	if len(rows) != 1 || rows[0].Value != 6.0 {
		t.Fatalf("reduce all: %+v", rows)
	}
	// Grouped.
	rows = h.queryFresh(t, "countByCity", QueryOptions{Reduce: true, Group: true})
	want := map[string]float64{"LA": 1, "NY": 2, "SF": 3}
	if len(rows) != 3 {
		t.Fatalf("grouped: %+v", rows)
	}
	for _, r := range rows {
		if r.Value != want[r.Key.(string)] {
			t.Errorf("group %v = %v, want %v", r.Key, r.Value, want[r.Key.(string)])
		}
	}
	// Range-restricted reduce.
	rows = h.queryFresh(t, "countByCity", QueryOptions{Reduce: true, Key: "SF", HasKey: true})
	if rows[0].Value != 3.0 {
		t.Fatalf("key-restricted reduce: %+v", rows)
	}
}

func TestViewReduceSumAndStats(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Define(Definition{Name: "sumV", Map: MapSpec{Key: "doc.g", Value: "doc.n"}, Reduce: "_sum"})
	h.engine.Define(Definition{Name: "statsV", Map: MapSpec{Key: "doc.g", Value: "doc.n"}, Reduce: "_stats"})
	h.engine.Define(Definition{Name: "minV", Map: MapSpec{Key: "doc.g", Value: "doc.n"}, Reduce: "_min"})
	h.engine.Define(Definition{Name: "maxV", Map: MapSpec{Key: "doc.g", Value: "doc.n"}, Reduce: "_max"})
	for i := 1; i <= 4; i++ {
		h.put(t, 0, fmt.Sprintf("d%d", i), fmt.Sprintf(`{"g": "x", "n": %d}`, i))
	}
	if rows := h.queryFresh(t, "sumV", QueryOptions{Reduce: true}); rows[0].Value != 10.0 {
		t.Errorf("_sum: %+v", rows)
	}
	if rows := h.queryFresh(t, "minV", QueryOptions{Reduce: true}); rows[0].Value != 1.0 {
		t.Errorf("_min: %+v", rows)
	}
	if rows := h.queryFresh(t, "maxV", QueryOptions{Reduce: true}); rows[0].Value != 4.0 {
		t.Errorf("_max: %+v", rows)
	}
	rows := h.queryFresh(t, "statsV", QueryOptions{Reduce: true})
	st := rows[0].Value.(map[string]any)
	if st["sum"] != 10.0 || st["count"] != 4.0 || st["min"] != 1.0 || st["max"] != 4.0 || st["sumsqr"] != 30.0 {
		t.Errorf("_stats: %+v", st)
	}
}

func TestStaleOKDoesNotWait(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Define(profileView)
	h.put(t, 0, "u1", `{"name": "A", "email": "a@x.com"}`)
	// stale=ok may or may not see the write; it must not block and must
	// not error. (Determinism: after an explicit fresh query, the index
	// caught up, and stale=ok then sees everything.)
	if _, err := h.engine.Query(context.Background(), "profile", QueryOptions{Stale: StaleOK}); err != nil {
		t.Fatal(err)
	}
	h.queryFresh(t, "profile", QueryOptions{})
	rows, err := h.engine.Query(context.Background(), "profile", QueryOptions{Stale: StaleOK})
	if err != nil || len(rows) != 1 {
		t.Fatalf("stale=ok after catch-up: %+v %v", rows, err)
	}
}

func TestStaleFalseObservesPriorWrites(t *testing.T) {
	h := newHarness(t, 2)
	h.engine.Define(profileView)
	// Race: write a burst, then immediately query with stale=false. The
	// result must include every prior write, every time.
	for round := 0; round < 10; round++ {
		for i := 0; i < 20; i++ {
			h.put(t, i%2, fmt.Sprintf("r%dd%d", round, i), fmt.Sprintf(`{"name": "n%03d%02d", "email": "e"}`, round, i))
		}
		rows := h.queryFresh(t, "profile", QueryOptions{})
		want := (round + 1) * 20
		if len(rows) != want {
			t.Fatalf("round %d: %d rows, want %d", round, len(rows), want)
		}
	}
}

func TestDetachVBRemovesItsEntries(t *testing.T) {
	h := newHarness(t, 2)
	h.engine.Define(profileView)
	h.put(t, 0, "a", `{"name": "A", "email": "x"}`)
	h.put(t, 1, "b", `{"name": "B", "email": "y"}`)
	h.queryFresh(t, "profile", QueryOptions{})
	// Partition 1 migrates away.
	h.engine.DetachVB(1)
	rows, err := h.engine.Query(context.Background(), "profile", QueryOptions{Stale: StaleOK})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Key != "A" {
		t.Fatalf("after detach: %+v", rows)
	}
}

func TestDefineOnExistingDataBackfills(t *testing.T) {
	h := newHarness(t, 1)
	// Data exists before the view: initial materialization must index it.
	for i := 0; i < 25; i++ {
		h.put(t, 0, fmt.Sprintf("u%d", i), fmt.Sprintf(`{"name": "n%02d", "email": "e"}`, i))
	}
	if err := h.engine.Define(profileView); err != nil {
		t.Fatal(err)
	}
	rows := h.queryFresh(t, "profile", QueryOptions{})
	if len(rows) != 25 {
		t.Fatalf("backfill rows: %d", len(rows))
	}
}

func TestViewDDLErrors(t *testing.T) {
	h := newHarness(t, 1)
	if err := h.engine.Define(Definition{Name: "v", Map: MapSpec{Key: ""}}); err == nil {
		t.Error("empty key expression should fail")
	}
	if err := h.engine.Define(Definition{Name: "v", Map: MapSpec{Key: "doc.x ("}}); err == nil {
		t.Error("bad key expression should fail")
	}
	if err := h.engine.Define(Definition{Name: "v", Map: MapSpec{Key: "doc.x"}, Reduce: "_bogus"}); err == nil {
		t.Error("unknown reduce should fail")
	}
	if err := h.engine.Define(profileView); err != nil {
		t.Fatal(err)
	}
	if err := h.engine.Define(profileView); err != ErrViewExists {
		t.Errorf("duplicate define: %v", err)
	}
	if _, err := h.engine.Query(context.Background(), "ghost", QueryOptions{}); err != ErrNoSuchView {
		t.Errorf("query unknown view: %v", err)
	}
	if err := h.engine.Drop("ghost"); err != ErrNoSuchView {
		t.Errorf("drop unknown view: %v", err)
	}
	if _, err := h.engine.Query(context.Background(), "profile", QueryOptions{Reduce: true}); err == nil {
		t.Error("reduce on reduce-less view should fail")
	}
	if err := h.engine.Drop("profile"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.engine.Query(context.Background(), "profile", QueryOptions{}); err != ErrNoSuchView {
		t.Errorf("query after drop: %v", err)
	}
}

func TestBinaryDocumentsAreSkipped(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Define(profileView)
	h.put(t, 0, "blob", `this is not json {{{`)
	h.put(t, 0, "ok", `{"name": "A", "email": "x"}`)
	rows := h.queryFresh(t, "profile", QueryOptions{})
	if len(rows) != 1 {
		t.Fatalf("binary doc should not be indexed: %+v", rows)
	}
}

func TestCompositeArrayKeys(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Define(Definition{
		Name: "byCityAge",
		Map:  MapSpec{Key: "[doc.city, doc.age]", Value: "doc.name"},
	})
	h.put(t, 0, "u1", `{"city": "SF", "age": 30, "name": "A"}`)
	h.put(t, 0, "u2", `{"city": "SF", "age": 25, "name": "B"}`)
	h.put(t, 0, "u3", `{"city": "NY", "age": 40, "name": "C"}`)
	// All SF entries via composite range: ["SF"] <= k < ["SF", {}].
	rows := h.queryFresh(t, "byCityAge", QueryOptions{
		StartKey: []any{"SF"}, HasStart: true,
		EndKey: []any{"SF", map[string]any{}}, HasEnd: true,
	})
	if len(rows) != 2 || rows[0].Value != "B" || rows[1].Value != "A" {
		t.Fatalf("composite range: %+v", rows)
	}
}

func TestMergeRowsScatterGather(t *testing.T) {
	n1 := []Row{{Key: "a", Value: 1.0, ID: "d1"}, {Key: "c", Value: 3.0, ID: "d3"}}
	n2 := []Row{{Key: "b", Value: 2.0, ID: "d2"}}
	merged := MergeRows("", false, [][]Row{n1, n2})
	if len(merged) != 3 || merged[0].Key != "a" || merged[1].Key != "b" || merged[2].Key != "c" {
		t.Fatalf("merge: %+v", merged)
	}
	// Reduced merge.
	r := MergeRows("_sum", false, [][]Row{{{Value: 10.0}}, {{Value: 5.0}}})
	if len(r) != 1 || r[0].Value != 15.0 {
		t.Fatalf("reduced merge: %+v", r)
	}
	r = MergeRows("_min", false, [][]Row{{{Value: 10.0}}, {{Value: 5.0}}})
	if r[0].Value != 5.0 {
		t.Fatalf("min merge: %+v", r)
	}
	r = MergeRows("_max", false, [][]Row{{{Value: 10.0}}, {{Value: 5.0}}})
	if r[0].Value != 10.0 {
		t.Fatalf("max merge: %+v", r)
	}
	// Stats merge.
	s1 := map[string]any{"sum": 3.0, "count": 2.0, "min": 1.0, "max": 2.0, "sumsqr": 5.0}
	s2 := map[string]any{"sum": 3.0, "count": 1.0, "min": 3.0, "max": 3.0, "sumsqr": 9.0}
	r = MergeRows("_stats", false, [][]Row{{{Value: s1}}, {{Value: s2}}})
	st := r[0].Value.(map[string]any)
	if st["sum"] != 6.0 || st["count"] != 3.0 || st["min"] != 1.0 || st["max"] != 3.0 {
		t.Fatalf("stats merge: %+v", st)
	}
	// Grouped merge: same keys from different nodes combine.
	g1 := []Row{{Key: "SF", Value: 2.0}}
	g2 := []Row{{Key: "NY", Value: 1.0}, {Key: "SF", Value: 3.0}}
	r = MergeRows("_count", true, [][]Row{g1, g2})
	if len(r) != 2 {
		t.Fatalf("grouped merge: %+v", r)
	}
	for _, row := range r {
		if row.Key == "SF" && row.Value != 5.0 {
			t.Errorf("SF merged = %v", row.Value)
		}
	}
}

// TestMergeRowsEdgeValues: re-merging through each reducer's Merge
// keeps the answers of the per-reduce copies it replaced — _sum and
// _count add every number value.AsNumber reads, an empty or zero-count
// _stats keeps null min and max, and an unknown reduce answers no row.
func TestMergeRowsEdgeValues(t *testing.T) {
	numbers := [][]Row{{{Value: 1}, {Value: int64(2)}}, {{Value: uint64(3)}, {Value: json.Number("4.5")}, {Value: "x"}, {Value: nil}}}
	for _, reduce := range []string{"_sum", "_count"} {
		if r := MergeRows(reduce, false, numbers); len(r) != 1 || r[0].Value != 10.5 {
			t.Errorf("%s over mixed numbers: %+v, want 10.5", reduce, r)
		}
	}
	empty := map[string]any{"sum": 0.0, "count": 0.0, "min": nil, "max": nil, "sumsqr": 0.0}
	for _, parts := range [][][]Row{nil, {{{Value: empty}}, {{Value: "junk"}}}} {
		r := MergeRows("_stats", false, parts)
		if len(r) != 1 || !reflect.DeepEqual(r[0].Value, empty) {
			t.Errorf("_stats over %v: %+v, want %v", parts, r, empty)
		}
	}
	one := map[string]any{"sum": 2, "count": json.Number("1"), "min": 2, "max": 2, "sumsqr": 4}
	r := MergeRows("_stats", true, [][]Row{{{Key: "k", Value: one}}, {{Key: "k", Value: empty}, {Key: "k", Value: one}}})
	if want := map[string]any{"sum": 4.0, "count": 2.0, "min": 2.0, "max": 2.0, "sumsqr": 8.0}; len(r) != 1 || !reflect.DeepEqual(r[0].Value, want) {
		t.Errorf("grouped _stats: %+v, want %v", r, want)
	}
	if r := MergeRows("_median", false, numbers); r != nil {
		t.Errorf("unknown reduce: %+v, want no rows", r)
	}
}

func TestProcessedVector(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Define(profileView)
	h.put(t, 0, "u1", `{"name": "A", "email": "x"}`)
	h.queryFresh(t, "profile", QueryOptions{})
	// The vector the stale=false query just waited on is the one the
	// stats surface shows: the view's feed owns the only copy.
	st := h.engine.FeedStats()
	if len(st) != 1 || st[0].Name != "view:profile" || st[0].Processed[0] != h.vbs[0].HighSeqno() {
		t.Fatalf("feed stats: %+v, want view:profile at seqno %d", st, h.vbs[0].HighSeqno())
	}
}

func TestStaleFalseTimeBound(t *testing.T) {
	// Guard against the wait hanging forever when vector includes an
	// unattached vbucket with zero target.
	h := newHarness(t, 1)
	h.engine.Define(profileView)
	done := make(chan struct{})
	go func() {
		h.engine.Query(context.Background(), "profile", QueryOptions{Stale: StaleFalse, WaitSeqnos: map[int]uint64{0: 0, 9: 0}})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stale=false with zero targets should not block")
	}
}

func TestEmitNullVsMissing(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Define(Definition{Name: "v", Map: MapSpec{Key: "doc.k", Value: "doc.v"}})
	h.put(t, 0, "withNull", `{"k": null, "v": 1}`)
	h.put(t, 0, "noKey", `{"v": 2}`) // k MISSING -> not emitted
	rows := h.queryFresh(t, "v", QueryOptions{})
	if len(rows) != 1 || rows[0].ID != "withNull" {
		t.Fatalf("null/missing emit: %+v", rows)
	}
	if value.KindOf(rows[0].Key) != value.NULL {
		t.Errorf("null key preserved: %v", rows[0].Key)
	}
}

// TestLimitStopsTheTreeWalk gates the shared page: a query with a limit
// reads skip+limit entries of a 10 000-row view, not its whole range.
// The walk's page is what shows it, in bytes, not in time: a whole range
// is a page of 10 000 entries, over half a megabyte.
func TestLimitStopsTheTreeWalk(t *testing.T) {
	h := newHarness(t, 0)
	if err := h.engine.Define(Definition{Name: "byN", Map: MapSpec{Key: "doc.n", Value: "doc.n"}, Reduce: "_count"}); err != nil {
		t.Fatal(err)
	}
	vi := h.engine.views["byN"]
	const docs = 10000
	for i := 0; i < docs; i++ {
		vi.Apply(i%8, []dcp.Mutation{{Key: fmt.Sprintf("d%05d", i), Seqno: uint64(i + 1), Value: []byte(fmt.Sprintf(`{"n": %d}`, i/4))}})
	}
	for _, tc := range []struct {
		name  string
		opts  QueryOptions
		first float64
	}{
		{"ascending", QueryOptions{Limit: 10}, 0},
		{"ascending from a start key", QueryOptions{StartKey: 100.0, HasStart: true, Limit: 10, Skip: 3}, 100},
		{"descending", QueryOptions{Descending: true, Limit: 10, Skip: 5}, (docs - 1 - 5) / 4},
		{"keys", QueryOptions{Keys: []any{7.0, 900.0, 12.0, 44.0}, Limit: 10, Skip: 2}, 7},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, err := h.engine.Query(context.Background(), "byN", tc.opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 10 || rows[0].Key != tc.first {
			t.Errorf("%s: %d rows, first %+v, want 10 from key %v", tc.name, len(rows), rows[0], tc.first)
		}
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 64<<10 {
			t.Errorf("%s: the query allocated %d bytes for limit 10 skip %d: the walk went past its page", tc.name, bytes, tc.opts.Skip)
		}
	}
	// A grouped reduce reads the span page by page; with the first
	// group one entry short, later groups straddle the page edges and
	// must still come out whole.
	vi.Apply(0, []dcp.Mutation{{Key: "d00000", Seqno: docs + 1, Deleted: true}})
	groups, err := h.engine.Query(context.Background(), "byN", QueryOptions{Reduce: true, Group: true})
	if err != nil || len(groups) != docs/4 {
		t.Fatalf("grouped reduce: %d groups, %v", len(groups), err)
	}
	for i, g := range groups {
		if want := min(3+i, 4); g.Key != float64(i) || g.Value != float64(want) {
			t.Fatalf("group %d: %+v, want a count of %d", i, g, want)
		}
	}
}
