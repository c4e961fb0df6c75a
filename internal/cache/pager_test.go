package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestPagerVisitsOnlyResidents: a value-mode sweep walks the resident
// items, not the table, and stops at the bytes it was asked for.
func TestPagerVisitsOnlyResidents(t *testing.T) {
	h := NewHashTable()
	val := make([]byte, 1000)
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("doc-%05d", i)
		h.Set(bg, key, val, 0, 0, 0, 0)
		if i >= 100 {
			h.EvictValue(key)
		}
	}
	clean := h.HighSeqno()
	sweep := func(need int64) (evicted int, visited uint64) {
		before := mPagerVisited.Value()
		evicted = h.sweep(0, clean, false, need)
		return evicted, mPagerVisited.Value() - before
	}
	// Two turns age every resident value, each visited once a turn.
	for turn := 0; turn < 2; turn++ {
		if evicted, visited := sweep(1 << 40); evicted != 0 || visited != 100 {
			t.Fatalf("turn %d over 100 resident values among 10 000 keys: %d evicted, %d visited", turn, evicted, visited)
		}
	}
	if evicted, visited := sweep(int64(len(val))); evicted != 1 || visited != 1 {
		t.Fatalf("a sweep asked for one value's bytes: %d evicted, %d visited", evicted, visited)
	}
	// The next picks up where that one stopped and takes the rest.
	if evicted, visited := sweep(1 << 40); evicted != 99 || visited != 99 {
		t.Fatalf("the sweep after it: %d evicted, %d visited", evicted, visited)
	}
	if st := h.Stats(); st.NonResident != 10000 || st.Items != 10000 {
		t.Fatalf("stats after evicting every value: %+v", st)
	}
}

// checkResidency requires each stripe's resident slice to be exactly its
// live resident items, each once and knowing its slot, and the
// non-resident count to be the rest.
func checkResidency(t *testing.T, h *HashTable, step string) {
	t.Helper()
	var nonResident int64
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock()
		want := 0
		for key, it := range st.items {
			in := it.Resident && !it.Deleted
			switch {
			case in:
				want++
				if it.slot < 1 || int(it.slot) > len(st.resident) || st.resident[it.slot-1] != it {
					t.Fatalf("after %s: resident %s has slot %d, which is not its place", step, key, it.slot)
				}
			case it.slot != 0:
				t.Fatalf("after %s: %s (resident %v, deleted %v) keeps slot %d", step, key, it.Resident, it.Deleted, it.slot)
			}
			if !it.Deleted && !it.Resident {
				nonResident++
			}
		}
		// Every slot right and as many slots as members: each is in once.
		if len(st.resident) != want {
			t.Fatalf("after %s: stripe %d lists %d resident items, holds %d", step, i, len(st.resident), want)
		}
		st.mu.Unlock()
	}
	if got := h.Stats().NonResident; got != nonResident {
		t.Fatalf("after %s: Stats().NonResident = %d, the table holds %d", step, got, nonResident)
	}
}

// TestResidentSliceMatchesTheTable drives every arm that can move an
// item across the resident/non-resident boundary, at random, and checks
// the slice against the table after each.
func TestResidentSliceMatchesTheTable(t *testing.T) {
	h := NewHashTable()
	rng := rand.New(rand.NewSource(28))
	now := int64(100)
	val := func() []byte { return []byte(fmt.Sprintf(`{"n":%d,"pad":"%0*d"}`, rng.Intn(1000), rng.Intn(40)+1, 0)) }
	// rawCopy is the table's own item copied field for field, its slot
	// included, where snapshot would have cleared it.
	rawCopy := func(key string) (Item, bool) {
		st := h.stripeOf(key)
		st.mu.Lock()
		defer st.mu.Unlock()
		it, ok := st.items[key]
		if !ok {
			return Item{}, false
		}
		return *it, true
	}
	arms := []struct {
		name string
		do   func(key string)
	}{
		{"Set", func(key string) { h.Set(bg, key, val(), 0, 0, 0, now) }},
		{"Set with expiry", func(key string) { h.Set(bg, key, val(), 0, now+int64(rng.Intn(3)), 0, now) }},
		{"Delete", func(key string) { h.Delete(bg, key, 0, now) }},
		{"Get", func(key string) { h.Get(key, now) }}, // expires lazily
		{"Touch", func(key string) { h.Touch(bg, key, now+int64(rng.Intn(3)), now, Fetched{}) }},
		{"Append", func(key string) { h.Append(bg, key, []byte(" "), 0, now, Fetched{}) }},
		{"SubdocSet", func(key string) { h.SubdocSet(bg, key, "n", float64(rng.Intn(9)), 0, now, Fetched{}) }},
		{"ApplyMeta", func(key string) {
			h.ApplyMeta(bg, Item{Key: key, Value: val(), CAS: NextCAS(), RevSeqno: 1, Seqno: h.HighSeqno() + 1})
		}},
		{"ApplyMeta of a copy", func(key string) {
			if it, ok := rawCopy(key); ok {
				it.Seqno = h.HighSeqno() + 1
				it.Deleted = rng.Intn(2) == 0 // its slot, if it has one, must not follow it
				h.ApplyMeta(bg, it)
			}
		}},
		{"Restore of a copy", func(key string) {
			if it, ok := rawCopy(key); ok && h.EvictItem(key, h.HighSeqno(), now) {
				h.Restore(it)
			}
		}},
		{"ApplyMeta tombstone", func(key string) {
			h.ApplyMeta(bg, Item{Key: key, CAS: NextCAS(), RevSeqno: 1, Seqno: h.HighSeqno() + 1, Deleted: true})
		}},
		{"ApplyRemote", func(key string) { h.ApplyRemote(bg, key, val(), rng.Intn(4) == 0, NextCAS(), 1<<40, 0, 0) }},
		{"Restore", func(key string) { h.Restore(Item{Key: key, Value: val(), CAS: 1, RevSeqno: 1, Seqno: 1}) }},
		{"GetWith the fetched revision", func(key string) {
			if it, err := h.GetMeta(key); err == nil {
				h.GetWith(key, now, Fetched{Seqno: it.Seqno, Value: val()})
			}
		}},
		{"GetWith a stale fetch", func(key string) {
			if it, err := h.GetMeta(key); err == nil {
				h.GetWith(key, now, Fetched{Seqno: it.Seqno - 1, Value: val()})
			}
		}},
		{"EvictValue", func(key string) { h.EvictValue(key) }},
		{"EvictItem", func(key string) { h.EvictItem(key, h.HighSeqno(), now) }},
		{"value sweep", func(string) { h.sweep(now, h.HighSeqno(), false, int64(rng.Intn(400))) }},
		{"full sweep", func(string) { h.sweep(now, h.HighSeqno(), true, int64(rng.Intn(400))) }},
		{"clock", func(string) { now++ }},
	}
	used := map[string]bool{}
	for step := 0; step < 20000; step++ {
		arm := arms[rng.Intn(len(arms))]
		arm.do(fmt.Sprintf("k%02d", rng.Intn(48)))
		used[arm.name] = true
		checkResidency(t, h, fmt.Sprintf("step %d, %s", step, arm.name))
	}
	if len(used) != len(arms) {
		t.Fatalf("only %d of %d arms ran", len(used), len(arms))
	}

	h.Set(bg, "copied", []byte(`{}`), 0, 0, 0, now)
	if snap, err := h.Get("copied", now); err != nil || snap.slot != 0 {
		t.Fatalf("a snapshot carries slot %d (%v)", snap.slot, err)
	}
}

// BenchmarkPagerSweep: 50 000 keys of which a fifth are resident; each
// iteration frees a tenth of the resident values (and restores them
// off the clock).
func BenchmarkPagerSweep(b *testing.B) {
	h := NewHashTable()
	val := make([]byte, 1024)
	const keys, residentEvery, perSweep = 50000, 5, 1000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("user%06d", i)
		h.Set(bg, key, val, 0, 0, 0, 0)
		if i%residentEvery != 0 {
			h.EvictValue(key)
		}
	}
	clean := h.HighSeqno()
	next := 0 // the key the restorer looks at next
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evicted := 0
		for evicted < perSweep {
			evicted += h.sweep(0, clean, false, int64(perSweep-evicted)*int64(len(val)))
		}
		b.StopTimer()
		for ; evicted > 0; next = (next + 1) % keys {
			key := fmt.Sprintf("user%06d", next)
			if it, _ := h.GetMeta(key); !it.Resident {
				h.GetWith(key, 0, Fetched{Seqno: it.Seqno, Value: val})
				evicted--
			}
		}
		b.StartTimer()
	}
}
