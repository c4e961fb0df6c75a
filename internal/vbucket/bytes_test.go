package vbucket

import (
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"couchgo/internal/cache"
	"couchgo/internal/storage"
)

// TestBytesPerKey pins what one key costs in each of a vBucket's two
// per-key structures: its cache table (the Item and its map slot) and
// its file's index (VBFile.byID). 100 000 keys are loaded into each and
// the heap growth is read after a GC. The keys and the one shared value
// are allocated before the first reading and live past the last, so
// neither structure is charged for them, nor credited with their
// death. Each structure is built three times and the least growth
// counts: another goroutine's heap moves between two readings, never
// the other way. A budget is the measured figure rounded up: a field
// added to either structure shows here first.
func TestBytesPerKey(t *testing.T) {
	const n = 100_000
	const tableBudget, indexBudget = 158, 64
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "user" + strconv.Itoa(1_000_000_000+i)
	}
	value := []byte("v")
	recs := make([]storage.Record, 0, 1000)
	var m runtime.MemStats
	heap := func() int64 {
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	// least builds a structure three times and returns its least growth
	// per key.
	least := func(build func(round int) any) float64 {
		growth := int64(math.MaxInt64)
		for round := range 3 {
			base := heap()
			built := build(round)
			growth = min(growth, heap()-base)
			runtime.KeepAlive(built)
		}
		return float64(growth) / n
	}

	table := least(func(int) any {
		h := cache.NewHashTable()
		for _, k := range keys {
			if _, err := h.Set(bg, k, value, 0, 0, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		return h
	})
	var files [3]*storage.VBFile // opened before their readings: an index is charged for its keys only
	for i := range files {
		f, err := storage.Open(filepath.Join(t.TempDir(), "vb.couch"), false)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	index := least(func(round int) any {
		f := files[round]
		for i, k := range keys {
			recs = append(recs, storage.Record{Meta: storage.Meta{Key: k, Seqno: uint64(i + 1), CAS: 1}, Value: value})
			if len(recs) == cap(recs) {
				if err := f.Append(recs); err != nil {
					t.Fatal(err)
				}
				recs = recs[:0]
			}
		}
		return f
	})

	runtime.KeepAlive(keys)
	t.Logf("%.1f B/key in the cache table, %.1f B/key in the file index", table, index)
	if table > tableBudget {
		t.Errorf("the cache table costs %.1f B/key, budget %d", table, tableBudget)
	}
	if index > indexBudget {
		t.Errorf("the file index costs %.1f B/key, budget %d", index, indexBudget)
	}
}
