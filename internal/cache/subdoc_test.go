package cache

import (
	"context"
	"errors"
	"sync"
	"testing"

	"couchgo/internal/value"
)

func subdocTable(t *testing.T) *HashTable {
	t.Helper()
	h := NewHashTable()
	if _, err := h.Set(bg, "doc", []byte(`{"name": "A", "stats": {"visits": 5}, "tags": ["x"]}`), 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSubdocGet(t *testing.T) {
	h := subdocTable(t)
	v, err := h.SubdocGet("doc", "stats.visits", 0, Fetched{})
	if err != nil || v != 5.0 {
		t.Fatalf("get: %v %v", v, err)
	}
	if _, err := h.SubdocGet("doc", "nope.deep", 0, Fetched{}); err != ErrPathNotFound {
		t.Errorf("missing path: %v", err)
	}
	if _, err := h.SubdocGet("ghost", "x", 0, Fetched{}); err != ErrKeyNotFound {
		t.Errorf("missing doc: %v", err)
	}
	if _, err := h.SubdocGet("doc", "a[bad", 0, Fetched{}); !errors.Is(err, ErrPathInvalid) {
		t.Errorf("bad path: %v", err)
	}
}

func TestSubdocSetAndRemove(t *testing.T) {
	h := subdocTable(t)
	it, err := h.SubdocSet(bg, "doc", "stats.clicks", 9.0, 0, 0, Fetched{})
	if err != nil {
		t.Fatal(err)
	}
	if it.Seqno != 2 || it.RevSeqno != 2 {
		t.Errorf("mutation meta: %+v", it)
	}
	if v, _ := h.SubdocGet("doc", "stats.clicks", 0, Fetched{}); v != 9.0 {
		t.Errorf("after set: %v", v)
	}
	// Untouched fields stay.
	if v, _ := h.SubdocGet("doc", "name", 0, Fetched{}); v != "A" {
		t.Errorf("sibling: %v", v)
	}
	if _, err := h.SubdocRemove(bg, "doc", "stats.clicks", 0, 0, Fetched{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.SubdocGet("doc", "stats.clicks", 0, Fetched{}); err != ErrPathNotFound {
		t.Errorf("after remove: %v", err)
	}
	if _, err := h.SubdocRemove(bg, "doc", "stats.clicks", 0, 0, Fetched{}); !errors.Is(err, ErrPathNotFound) {
		t.Errorf("double remove: %v", err)
	}
	// CAS discipline applies.
	cur, _ := h.GetMeta("doc")
	if _, err := h.SubdocSet(bg, "doc", "x", 1.0, cur.CAS+999, 0, Fetched{}); err != ErrCASMismatch {
		t.Errorf("stale cas: %v", err)
	}
	if _, err := h.SubdocSet(bg, "doc", "x", 1.0, cur.CAS, 0, Fetched{}); err != nil {
		t.Errorf("fresh cas: %v", err)
	}
}

func TestSubdocArrayAppend(t *testing.T) {
	h := subdocTable(t)
	if _, err := h.SubdocArrayAppend(bg, "doc", "tags", "y", 0, 0, Fetched{}); err != nil {
		t.Fatal(err)
	}
	v, _ := h.SubdocGet("doc", "tags", 0, Fetched{})
	if value.Compare(v, []any{"x", "y"}) != 0 {
		t.Fatalf("tags: %v", v)
	}
	// Creates absent arrays.
	if _, err := h.SubdocArrayAppend(bg, "doc", "fresh", 1.0, 0, 0, Fetched{}); err != nil {
		t.Fatal(err)
	}
	v, _ = h.SubdocGet("doc", "fresh", 0, Fetched{})
	if value.Compare(v, []any{1.0}) != 0 {
		t.Fatalf("fresh: %v", v)
	}
	// Type mismatch.
	if _, err := h.SubdocArrayAppend(bg, "doc", "name", "z", 0, 0, Fetched{}); !errors.Is(err, ErrPathMismatch) {
		t.Errorf("append to string: %v", err)
	}
}

func TestSubdocCounter(t *testing.T) {
	h := subdocTable(t)
	n, _, err := h.SubdocCounter(bg, "doc", "stats.visits", 3, 0, 0, Fetched{})
	if err != nil || n != 8.0 {
		t.Fatalf("counter: %v %v", n, err)
	}
	n, _, _ = h.SubdocCounter(bg, "doc", "stats.visits", -10, 0, 0, Fetched{})
	if n != -2.0 {
		t.Fatalf("negative: %v", n)
	}
	// Created when absent.
	n, _, err = h.SubdocCounter(bg, "doc", "brandnew", 1, 0, 0, Fetched{})
	if err != nil || n != 1.0 {
		t.Fatalf("create: %v %v", n, err)
	}
	// Non-number.
	if _, _, err := h.SubdocCounter(bg, "doc", "name", 1, 0, 0, Fetched{}); !errors.Is(err, ErrPathMismatch) {
		t.Errorf("counter on string: %v", err)
	}
}

func TestSubdocCounterIsAtomic(t *testing.T) {
	h := subdocTable(t)
	var wg sync.WaitGroup
	const goroutines, each = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, _, err := h.SubdocCounter(bg, "doc", "stats.visits", 1, 0, 0, Fetched{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v, _ := h.SubdocGet("doc", "stats.visits", 0, Fetched{})
	if v != float64(5+goroutines*each) {
		t.Fatalf("lost updates: %v", v)
	}
}

func TestSubdocOnBinaryDoc(t *testing.T) {
	h := NewHashTable()
	h.Set(bg, "blob", []byte("not json {"), 0, 0, 0, 0)
	if _, err := h.SubdocGet("blob", "x", 0, Fetched{}); err != ErrNotJSON {
		t.Errorf("get on binary: %v", err)
	}
	if _, err := h.SubdocSet(bg, "blob", "x", 1.0, 0, 0, Fetched{}); err != ErrNotJSON {
		t.Errorf("set on binary: %v", err)
	}
}

func TestSubdocMutationsFlowToObservers(t *testing.T) {
	h := subdocTable(t)
	var seen []uint64
	h.OnMutate(func(_ context.Context, it Item) { seen = append(seen, it.Seqno) })
	h.SubdocSet(bg, "doc", "a", 1.0, 0, 0, Fetched{})
	h.SubdocCounter(bg, "doc", "n", 1, 0, 0, Fetched{})
	if len(seen) != 2 {
		t.Fatalf("observer saw %d mutations", len(seen))
	}
}
