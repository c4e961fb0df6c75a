package value

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestCollationTypeOrder(t *testing.T) {
	// MISSING < NULL < FALSE < TRUE < number < string < array < object.
	ladder := []any{
		Missing,
		nil,
		false,
		true,
		-1.5,
		"a",
		[]any{1.0},
		map[string]any{"a": 1.0},
	}
	for i := 0; i < len(ladder); i++ {
		for j := 0; j < len(ladder); j++ {
			got := Compare(ladder[i], ladder[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(ladder[%d], ladder[%d]) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestCompareWithinTypes(t *testing.T) {
	cases := []struct {
		a, b any
		want int
	}{
		{1.0, 2.0, -1},
		{2.0, 2.0, 0},
		{"apple", "banana", -1},
		{"b", "b", 0},
		{[]any{1.0, 2.0}, []any{1.0, 3.0}, -1},
		{[]any{1.0}, []any{1.0, 0.0}, -1}, // prefix sorts first
		{[]any{}, []any{}, 0},
		{map[string]any{"a": 1.0}, map[string]any{"a": 2.0}, -1},
		{map[string]any{"a": 1.0}, map[string]any{"b": 1.0}, -1},
		{map[string]any{"a": 1.0}, map[string]any{"a": 1.0, "b": 2.0}, -1},
		{Binary("ab"), Binary("ac"), -1},
		{Binary("ab"), Binary("ab"), 0},
		{false, true, -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d (antisymmetry)", c.b, c.a, got, -c.want)
		}
	}
}

// TestEqual: equality under collation is Compare == 0. MISSING equals
// MISSING and NULL equals NULL here; expression-level equality, which
// propagates them, lives in the n1ql package.
func TestEqual(t *testing.T) {
	if Compare(MustParse(`{"a":[1,2]}`), MustParse(`{"a":[1,2]}`)) != 0 {
		t.Error("equal documents should compare equal")
	}
	if Compare(1.0, "1") == 0 {
		t.Error("number and string are never equal")
	}
}

// randomValue builds a random JSON value of bounded depth.
func randomValue(r *rand.Rand, depth int) any {
	max := 7
	if depth <= 0 {
		max = 5 // scalars only
	}
	switch r.Intn(max) {
	case 0:
		return Missing
	case 1:
		return nil
	case 2:
		return r.Intn(2) == 0
	case 3:
		return float64(r.Intn(2000)-1000) / 4
	case 4:
		letters := []byte("abXY01\x00")
		n := r.Intn(6)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return string(b)
	case 5:
		n := r.Intn(4)
		arr := make([]any, n)
		for i := range arr {
			arr[i] = randomValue(r, depth-1)
		}
		return arr
	default:
		n := r.Intn(4)
		obj := make(map[string]any, n)
		for i := 0; i < n; i++ {
			obj[string(rune('a'+r.Intn(5)))] = randomValue(r, depth-1)
		}
		return obj
	}
}

type randVal struct{ v any }

func (randVal) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randVal{randomValue(r, 3)})
}

func TestQuickCompareReflexive(t *testing.T) {
	f := func(a randVal) bool { return Compare(a.v, a.v) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b randVal) bool { return Compare(a.v, b.v) == -Compare(b.v, a.v) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickEncodeKeyOrderPreserving is the core index-engine invariant:
// bytes.Compare(EncodeKey(a), EncodeKey(b)) must agree with Compare(a, b).
func TestQuickEncodeKeyOrderPreserving(t *testing.T) {
	f := func(a, b randVal) bool {
		vc := Compare(a.v, b.v)
		bc := bytes.Compare(EncodeKey(a.v), EncodeKey(b.v))
		if vc == 0 {
			// Distinct-but-equal values (e.g. MISSING vs MISSING) must
			// encode identically too.
			return bc == 0
		}
		return (vc < 0) == (bc < 0) && bc != 0
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareTransitiveViaSort(t *testing.T) {
	// Sorting with Compare must yield a consistent order: after sorting,
	// every adjacent pair is <=. This catches intransitivity in practice.
	f := func(vals [12]randVal) bool {
		s := make([]any, len(vals))
		for i, v := range vals {
			s[i] = v.v
		}
		sort.Slice(s, func(i, j int) bool { return Compare(s[i], s[j]) < 0 })
		for i := 1; i < len(s); i++ {
			if Compare(s[i-1], s[i]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyStringEscaping(t *testing.T) {
	// "a\x00b" vs "a" — the embedded NUL must not make the shorter string
	// sort incorrectly.
	a, b := "a", "a\x00b"
	if Compare(a, b) >= 0 {
		t.Fatal("precondition: a < a\\x00b in string order")
	}
	if bytes.Compare(EncodeKey(a), EncodeKey(b)) >= 0 {
		t.Error("EncodeKey breaks order for strings with NUL bytes")
	}
}

func TestEncodeKeyNumbers(t *testing.T) {
	nums := []float64{-1e9, -2.5, -1, -0.25, 0, 0.25, 1, 2.5, 1e9}
	for i := 1; i < len(nums); i++ {
		a := EncodeKey(nums[i-1])
		b := EncodeKey(nums[i])
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("EncodeKey(%v) !< EncodeKey(%v)", nums[i-1], nums[i])
		}
	}
}
