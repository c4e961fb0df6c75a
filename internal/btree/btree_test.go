package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// countReducer counts entries.
type countReducer struct{}

func (countReducer) Map(_ []byte, _ any) any { return 1.0 }
func (countReducer) Merge(parts ...any) any {
	s := 0.0
	for _, p := range parts {
		if p != nil {
			s += p.(float64)
		}
	}
	return s
}
func (countReducer) Zero() any { return 0.0 }

// sumReducer sums float64 values.
type sumReducer struct{}

func (sumReducer) Map(_ []byte, v any) any { return v.(float64) }
func (sumReducer) Merge(parts ...any) any {
	s := 0.0
	for _, p := range parts {
		if p != nil {
			s += p.(float64)
		}
	}
	return s
}
func (sumReducer) Zero() any { return 0.0 }

func key(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }

// size counts the tree's entries.
func size(tr *Tree[any]) int {
	n := 0
	tr.Ascend(nil, nil, func([]byte, any) bool { n++; return true })
	return n
}

func TestSetGetDelete(t *testing.T) {
	tr := New[any](nil)
	if _, ok := tr.Get(key(1)); ok {
		t.Fatal("empty tree Get")
	}
	if _, inserted := tr.Set(key(1), "a"); !inserted {
		t.Fatal("first Set should insert")
	}
	if _, inserted := tr.Set(key(1), "b"); inserted {
		t.Fatal("second Set should replace")
	}
	v, ok := tr.Get(key(1))
	if !ok || v != "b" {
		t.Fatalf("Get = %v %v", v, ok)
	}
	if size(tr) != 1 {
		t.Fatalf("Len = %d", size(tr))
	}
	if !tr.Delete(key(1)) {
		t.Fatal("Delete should report true")
	}
	if tr.Delete(key(1)) {
		t.Fatal("double Delete should report false")
	}
	if size(tr) != 0 {
		t.Fatalf("Len after delete = %d", size(tr))
	}
}

func TestLargeOrderedInsertAndScan(t *testing.T) {
	tr := New[any](nil)
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Set(key(i), float64(i))
	}
	if size(tr) != n {
		t.Fatalf("Len = %d", size(tr))
	}
	i := 0
	tr.Ascend(nil, nil, func(k []byte, v any) bool {
		if !bytes.Equal(k, key(i)) {
			t.Fatalf("scan order broke at %d: %s", i, k)
		}
		i++
		return true
	})
	if i != n {
		t.Fatalf("scanned %d", i)
	}
	h := 1
	for n := tr.root; !n.leaf; n = n.children[0] {
		h++
	}
	if h > 5 {
		t.Errorf("height %d too tall for %d ordered inserts", h, n)
	}
}

func TestRandomInsertDeleteAgainstModel(t *testing.T) {
	tr := New[any](countReducer{})
	model := map[string]float64{}
	r := rand.New(rand.NewSource(7))
	for op := 0; op < 20000; op++ {
		k := key(r.Intn(800))
		if r.Intn(3) == 0 {
			delete(model, string(k))
			tr.Delete(k)
		} else {
			v := r.Float64()
			model[string(k)] = v
			tr.Set(k, v)
		}
	}
	if size(tr) != len(model) {
		t.Fatalf("Len = %d, model %d", size(tr), len(model))
	}
	// Everything retrievable with the right value.
	for k, want := range model {
		v, ok := tr.Get([]byte(k))
		if !ok || v.(float64) != want {
			t.Fatalf("Get(%s) = %v %v, want %v", k, v, ok, want)
		}
	}
	// Full scan is sorted and complete.
	var keys []string
	tr.Ascend(nil, nil, func(k []byte, _ any) bool {
		keys = append(keys, string(k))
		return true
	})
	if !sort.StringsAreSorted(keys) {
		t.Fatal("scan not sorted")
	}
	if len(keys) != len(model) {
		t.Fatalf("scan %d keys, model %d", len(keys), len(model))
	}
	// Annotation agrees with the count.
	if got := tr.ReduceRange(nil, nil).(float64); got != float64(len(model)) {
		t.Fatalf("whole-tree reduce = %v, want %d", got, len(model))
	}
}

func TestAscendRange(t *testing.T) {
	tr := New[any](nil)
	for i := 0; i < 100; i++ {
		tr.Set(key(i), i)
	}
	var got []int
	tr.Ascend(key(10), key(20), func(_ []byte, v any) bool {
		got = append(got, v.(int))
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("range scan: %v", got)
	}
	// Unbounded below.
	got = nil
	tr.Ascend(nil, key(3), func(_ []byte, v any) bool { got = append(got, v.(int)); return true })
	if len(got) != 3 {
		t.Fatalf("lo-unbounded: %v", got)
	}
	// Unbounded above.
	got = nil
	tr.Ascend(key(97), nil, func(_ []byte, v any) bool { got = append(got, v.(int)); return true })
	if len(got) != 3 {
		t.Fatalf("hi-unbounded: %v", got)
	}
	// Early stop.
	count := 0
	tr.Ascend(nil, nil, func(_ []byte, _ any) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop count %d", count)
	}
}

func TestDescend(t *testing.T) {
	tr := New[any](nil)
	for i := 0; i < 100; i++ {
		tr.Set(key(i), i)
	}
	var got []int
	tr.Descend(key(10), key(20), func(_ []byte, v any) bool {
		got = append(got, v.(int))
		return true
	})
	if len(got) != 10 || got[0] != 19 || got[9] != 10 {
		t.Fatalf("descend: %v", got)
	}
	got = nil
	tr.Descend(nil, nil, func(_ []byte, v any) bool { got = append(got, v.(int)); return len(got) < 3 })
	if len(got) != 3 || got[0] != 99 {
		t.Fatalf("descend all: %v", got)
	}
}

// TestBoundedWalksAgainstModel checks Ascend and Descend over random
// bounds (absent keys, either side open, empty and inverted ranges) on a
// tree churned until its separators are stale and its leaves uneven:
// both position on the near bound once, in the first leaf they reach,
// and walk every later leaf from its edge.
func TestBoundedWalksAgainstModel(t *testing.T) {
	tr := New[any](nil)
	present := map[int]bool{}
	r := rand.New(rand.NewSource(11))
	for op := 0; op < 30000; op++ {
		i := 2 * r.Intn(1500) // even keys only: odd bounds fall between entries
		if r.Intn(5) < 2 {
			delete(present, i)
			tr.Delete(key(i))
		} else {
			present[i] = true
			tr.Set(key(i), i)
		}
	}
	bound := func() (int, []byte) {
		if r.Intn(6) == 0 {
			return -1, nil
		}
		i := r.Intn(3100) - 50
		return i, key(i)
	}
	for round := 0; round < 2000; round++ {
		lo, loKey := bound()
		hi, hiKey := bound()
		var want []int
		for i := 0; i < 3000; i += 2 {
			if present[i] && (loKey == nil || i >= lo) && (hiKey == nil || i < hi) {
				want = append(want, i)
			}
		}
		var up, down []int
		tr.Ascend(loKey, hiKey, func(_ []byte, v any) bool { up = append(up, v.(int)); return true })
		tr.Descend(loKey, hiKey, func(_ []byte, v any) bool { down = append(down, v.(int)); return true })
		for i, j := 0, len(down)-1; i < j; i, j = i+1, j-1 {
			down[i], down[j] = down[j], down[i]
		}
		if fmt.Sprint(up) != fmt.Sprint(want) || fmt.Sprint(down) != fmt.Sprint(want) {
			t.Fatalf("[%d, %d): Ascend %v, Descend (reversed) %v, want %v", lo, hi, up, down, want)
		}
	}
}

func TestReduceRangeMatchesScan(t *testing.T) {
	tr := New[any](sumReducer{})
	r := rand.New(rand.NewSource(11))
	vals := map[int]float64{}
	for i := 0; i < 3000; i++ {
		v := float64(r.Intn(100))
		vals[i] = v
		tr.Set(key(i), v)
	}
	// Delete a third to exercise annotations under deletion.
	for i := 0; i < 3000; i += 3 {
		tr.Delete(key(i))
		delete(vals, i)
	}
	check := func(lo, hi int) {
		var want float64
		for i := lo; i < hi; i++ {
			if v, ok := vals[i]; ok {
				want += v
			}
		}
		var loK, hiK []byte
		if lo >= 0 {
			loK = key(lo)
		}
		if hi >= 0 {
			hiK = key(hi)
		}
		got := tr.ReduceRange(loK, hiK).(float64)
		if got != want {
			t.Fatalf("ReduceRange(%d,%d) = %v, want %v", lo, hi, got, want)
		}
	}
	check(0, 3000)
	check(100, 200)
	check(0, 1)
	check(1500, 1501)
	check(2999, 3000)
	for i := 0; i < 50; i++ {
		lo := r.Intn(3000)
		hi := lo + r.Intn(3000-lo)
		check(lo, hi)
	}
	// The whole tree.
	var total float64
	for _, v := range vals {
		total += v
	}
	if got := tr.ReduceRange(nil, nil).(float64); got != total {
		t.Fatalf("whole-tree reduce = %v, want %v", got, total)
	}
}

func TestReduceAllEmptyTree(t *testing.T) {
	tr := New[any](countReducer{})
	if got := tr.ReduceRange(nil, nil).(float64); got != 0 {
		t.Fatalf("empty ReduceRange = %v", got)
	}
	if got := tr.ReduceRange(key(1), key(2)).(float64); got != 0 {
		t.Fatalf("empty bounded ReduceRange = %v", got)
	}
	// Tree without reducer returns nil.
	if New[any](nil).ReduceRange(nil, nil) != nil {
		t.Fatal("nil reducer should yield nil")
	}
}

func TestQuickTreeMatchesSortedMap(t *testing.T) {
	f := func(ops []uint16) bool {
		tr := New[any](countReducer{})
		model := map[string]bool{}
		for _, op := range ops {
			k := key(int(op % 500))
			if op%7 == 0 {
				tr.Delete(k)
				delete(model, string(k))
			} else {
				tr.Set(k, true)
				model[string(k)] = true
			}
		}
		if size(tr) != len(model) {
			return false
		}
		count := 0
		prev := []byte(nil)
		okScan := true
		tr.Ascend(nil, nil, func(k []byte, _ any) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				okScan = false
			}
			prev = append(prev[:0], k...)
			if !model[string(k)] {
				okScan = false
			}
			count++
			return true
		})
		return okScan && count == len(model) && tr.ReduceRange(nil, nil).(float64) == float64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKeysAreCopied(t *testing.T) {
	tr := New[any](nil)
	k := []byte("mutable")
	tr.Set(k, 1)
	k[0] = 'X'
	if _, ok := tr.Get([]byte("mutable")); !ok {
		t.Fatal("tree must copy keys on insert")
	}
}

// TestSetReturnsItsCopy: Set hands back the key it stored, the one copy
// a caller may keep instead of its own, and a Set of a key already there
// hands back the first copy and copies nothing.
func TestSetReturnsItsCopy(t *testing.T) {
	tr := New[any](nil)
	k := []byte("mutable")
	stored, _ := tr.Set(k, 1)
	if !bytes.Equal(stored, k) || &stored[0] == &k[0] {
		t.Fatalf("Set returned %q at the caller's address %v", stored, &stored[0] == &k[0])
	}
	if again, inserted := tr.Set([]byte("mutable"), 2); inserted || &again[0] != &stored[0] {
		t.Fatalf("replacing Set: inserted %v, same copy %v", inserted, &again[0] == &stored[0])
	}
	if n := testing.AllocsPerRun(100, func() { tr.Set(k, 3) }); n != 0 {
		t.Errorf("replacing a value allocates %.0f", n)
	}
}
