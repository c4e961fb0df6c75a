package vbucket

import (
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
// are allocated before the first reading, so neither structure is
// charged for them. A budget is the measured figure rounded up: a field
// added to either structure shows here first.
func TestBytesPerKey(t *testing.T) {
	const n = 100_000
	const tableBudget, indexBudget = 158, 47
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "user" + strconv.Itoa(1_000_000_000+i)
	}
	value := []byte("v")
	recs := make([]storage.Record, 0, 1000)
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}

	base := heap()
	h := cache.NewHashTable()
	for _, k := range keys {
		if _, err := h.Set(bg, k, value, 0, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	table := float64(heap()-base) / n
	runtime.KeepAlive(h)

	f, err := storage.Open(filepath.Join(t.TempDir(), "vb.couch"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base = heap()
	for i, k := range keys {
		recs = append(recs, storage.Record{Meta: storage.Meta{Key: k, Seqno: uint64(i + 1), CAS: 1}, Value: value})
		if len(recs) == cap(recs) {
			if err := f.Append(recs); err != nil {
				t.Fatal(err)
			}
			recs = recs[:0]
		}
	}
	index := float64(heap()-base) / n

	t.Logf("%.1f B/key in the cache table, %.1f B/key in the file index", table, index)
	if table > tableBudget {
		t.Errorf("the cache table costs %.1f B/key, budget %d", table, tableBudget)
	}
	if index > indexBudget {
		t.Errorf("the file index costs %.1f B/key, budget %d", index, indexBudget)
	}
}
