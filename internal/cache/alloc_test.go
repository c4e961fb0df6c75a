package cache

import (
	"context"
	"strconv"
	"testing"
)

// TestResidentGetZeroAlloc gates the hottest read path: a resident
// cache hit must not allocate at all — the item snapshot is returned
// by value and shares the value bytes.
func TestResidentGetZeroAlloc(t *testing.T) {
	h := NewHashTable()
	if _, err := h.Set(context.Background(), "user4316891766", make([]byte, 1024), 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(1000, func() {
		if _, err := h.Get("user4316891766", 0); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("resident Get allocates %.1f times per op, want 0", n)
	}
}

// TestGetMissZeroAlloc: a clean miss is also allocation-free (error
// values are shared sentinels).
func TestGetMissZeroAlloc(t *testing.T) {
	h := NewHashTable()
	n := testing.AllocsPerRun(1000, func() {
		if _, err := h.Get("absent", 0); err != ErrKeyNotFound {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("Get miss allocates %.1f times per op, want 0", n)
	}
}

// TestSetAllocBudget bounds the cache write path (no observer wired):
// a key's first install allocates its Item (and may grow the stripe's
// map and resident slice), an overwrite nothing. The 1 000 measured
// Sets over 64 keys are overwrites but for the first 64, so the
// average has room for those and for nothing per op.
func TestSetAllocBudget(t *testing.T) {
	h := NewHashTable()
	value := make([]byte, 1024)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "user" + strconv.Itoa(1000000+i)
	}
	i := 0
	n := testing.AllocsPerRun(1000, func() {
		if _, err := h.Set(context.Background(), keys[i%len(keys)], value, 0, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		i++
	})
	const budget = 1
	if n > budget {
		t.Errorf("cache Set allocates %.1f times per op, budget %d", n, budget)
	}
}

func BenchmarkGetResident(b *testing.B) {
	h := NewHashTable()
	if _, err := h.Set(context.Background(), "user4316891766", make([]byte, 1024), 0, 0, 0, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Get("user4316891766", 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSetOverwrite(b *testing.B) {
	h := NewHashTable()
	value := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Set(context.Background(), "user4316891766", value, 0, 0, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetParallel exercises stripe scaling: concurrent readers of
// different keys should not contend.
func BenchmarkGetParallel(b *testing.B) {
	h := NewHashTable()
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = "user" + strconv.Itoa(1000000+i)
		if _, err := h.Set(context.Background(), keys[i], make([]byte, 128), 0, 0, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := h.Get(keys[i%len(keys)], 0); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
