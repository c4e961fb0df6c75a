package gsi

import (
	"fmt"
	"strings"
	"testing"

	"couchgo/internal/dcp"
	"couchgo/internal/value"
)

// ycsbDoc is a YCSB-shaped record: fields of 100 bytes each, 1.1 KB at
// the benchmark's ten.
func ycsbDoc(fields int) []byte {
	var sb strings.Builder
	sb.WriteByte('{')
	for f := 0; f < fields; f++ {
		if f > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"field%d":"%s"`, f, strings.Repeat(string(rune('a'+f%26)), 100))
	}
	sb.WriteByte('}')
	return []byte(sb.String())
}

// routedService is a service with no feed attached, holding a primary
// index when asked to and one memory-optimized index per named field
// on keyspace ks: what Service.route projects into.
func routedService(tb testing.TB, primary bool, fields ...string) *Service {
	svc := NewService("")
	tb.Cleanup(svc.Close)
	defs := make([]Def, 0, len(fields)+1)
	if primary {
		defs = append(defs, Def{Name: "#primary", IsPrimary: true})
	}
	for _, f := range fields {
		defs = append(defs, Def{Name: f, SecExprs: []string{f}})
	}
	for _, def := range defs {
		def.Keyspace, def.Mode = "ks", MemoryOptimized
		if err := svc.CreateIndex(def); err != nil {
			tb.Fatal(err)
		}
	}
	return svc
}

// routeAllocs is what routing one update of one document allocates.
func routeAllocs(svc *Service, doc []byte) float64 {
	seqno := uint64(0)
	return testing.AllocsPerRun(200, func() {
		seqno++
		svc.route("ks", 3, dcp.Mutation{Key: "user00001234", Seqno: seqno, CAS: seqno, Value: doc})
	})
}

// TestRouteParsesAtMostOnce: a keyspace's indexes share one decode of a
// mutation, so each index after the first adds its key version and no
// second decode; and a keyspace with only a primary index, which reads
// nothing of the document, does not decode at all: what it allocates
// does not depend on the document.
func TestRouteParsesAtMostOnce(t *testing.T) {
	doc := ycsbDoc(10)
	decode := testing.AllocsPerRun(200, func() { value.Parse(doc) })
	one := routeAllocs(routedService(t, false, "field0"), doc)
	three := routeAllocs(routedService(t, false, "field0", "field1", "field2"), doc)
	t.Logf("per mutation: decode %.0f allocations, one index %.0f, three indexes %.0f (%.2fx)", decode, one, three, three/one)
	if perIndex := one - decode; three > one+2*perIndex+2 {
		t.Errorf("three indexes allocate %.0f per mutation; one decode (%.0f) and three key versions (%.0f each) are %.0f",
			three, decode, perIndex, decode+3*perIndex)
	}

	small := routeAllocs(routedService(t, true), ycsbDoc(1))
	large := routeAllocs(routedService(t, true), ycsbDoc(20))
	t.Logf("primary index alone: %.0f allocations for a 0.1 KB document, %.0f for 2.2 KB", small, large)
	if small != large {
		t.Errorf("a primary index alone allocates %.0f for a small document and %.0f for a large one: it decodes what it never reads", small, large)
	}
}

// TestPrimaryIndexRefusesNonJSON: the primary index holds exactly the
// documents whose values are JSON, whether the value was decoded
// (another index on the keyspace reads it) or only validated, and
// whether the entry came from the live feed or from an index build.
func TestPrimaryIndexRefusesNonJSON(t *testing.T) {
	for _, withSecondary := range []bool{false, true} {
		h := newHarness(t, 2)
		if err := h.svc.CreateIndex(Def{Name: "#primary", Keyspace: "Profile", IsPrimary: true}); err != nil {
			t.Fatal(err)
		}
		if withSecondary {
			if err := h.svc.CreateIndex(Def{Name: "age", Keyspace: "Profile", SecExprs: []string{"age"}}); err != nil {
				t.Fatal(err)
			}
		}
		h.put(t, 0, "binary", "\x00\x01 not json")
		h.put(t, 1, "truncated", `{"age": 3`)
		h.put(t, 0, "huge", `{"age": 1e999}`) // JSON by grammar, but no float64 holds it
		h.put(t, 1, "json", `{"age": 30}`)
		h.put(t, 0, "scalar", `"a string is a document too"`)
		h.put(t, 1, "overwritten", `{"age": 31}`)
		h.put(t, 1, "overwritten", "\xff\xfe")
		h.put(t, 0, "repaired", "\xff\xfe")
		h.put(t, 0, "repaired", `{"age": 32}`)

		ids := func(name string) string {
			var out []string
			for _, it := range h.scanFresh(t, name, ScanOptions{}) {
				out = append(out, it.DocID)
			}
			return strings.Join(out, " ")
		}
		const want = "json repaired scalar"
		if got := ids("#primary"); got != want {
			t.Errorf("secondary index %v: live primary index holds [%s], want [%s]", withSecondary, got, want)
		}
		if err := h.svc.CreateIndex(Def{Name: "#built", Keyspace: "Profile", IsPrimary: true, Deferred: true}); err != nil {
			t.Fatal(err)
		}
		if err := h.svc.BuildIndex("Profile", "#built"); err != nil {
			t.Fatal(err)
		}
		if got := ids("#built"); got != want {
			t.Errorf("secondary index %v: built primary index holds [%s], want [%s]", withSecondary, got, want)
		}
	}
}

// BenchmarkRoute is the projector's cost per mutation of a 1.1 KB
// document: with a primary index alone (validate, no decode) and with
// a primary and two secondary indexes (one decode for the three).
func BenchmarkRoute(b *testing.B) {
	doc := ycsbDoc(10)
	keys := make([]string, 20000)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%08d", i)
	}
	for _, bc := range []struct {
		name   string
		fields []string
	}{
		{"primary", nil},
		{"primary+2secondary", []string{"field0", "field1"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			svc := routedService(b, true, bc.fields...)
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(keys)
				svc.route("ks", k%64, dcp.Mutation{Key: keys[k], Seqno: uint64(i + 1), Value: doc})
			}
		})
	}
}
