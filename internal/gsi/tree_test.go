package gsi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// idTree is a primary-index-shaped tree of n entries spread over 64
// vBuckets: the document ID is the key, as in workload E.
func idTree(n int) *Tree {
	tr := NewTree(nil)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("user%08d", i)
		tr.Replace(i%64, id, [][]any{{id}}, nil)
	}
	return tr
}

// TestScanPageAllocatesOnce: a limited scan allocates its page and
// nothing else, whatever the limit, and the page has room for what it
// holds and no more. (Grown from nil by doubling, a LIMIT-50 page was 7
// allocations and 2.5 times its final size, all of them under the tree's
// lock.)
func TestScanPageAllocatesOnce(t *testing.T) {
	const entries = 20000
	tr := idTree(entries)
	for _, limit := range []int{1, 50, 1000} {
		for _, reverse := range []bool{false, true} {
			opts := ScanOptions{Limit: limit, Reverse: reverse}
			// The least of several runs is the scan with its walk buffer
			// warm: a sync.Pool forgets across a GC, and under the race
			// detector drops a quarter of what it is given.
			n := math.Inf(1)
			for i := 0; i < 20; i++ {
				n = min(n, testing.AllocsPerRun(1, func() {
					if page := tr.Scan(opts); len(page) != limit || cap(page) != limit {
						t.Fatalf("LIMIT %d: %d entries with room for %d", limit, len(page), cap(page))
					}
				}))
			}
			if n != 1 {
				t.Errorf("LIMIT %d reverse %v: %.0f allocations per scan, want 1 (the page)", limit, reverse, n)
			}
		}
	}
	page := tr.Scan(ScanOptions{Limit: 1 << 40})
	if len(page) != entries || cap(page) > entries {
		t.Errorf("LIMIT above the tree's size: page of %d entries with room for %d, tree holds %d", len(page), cap(page), entries)
	}
	if page = tr.Scan(ScanOptions{}); len(page) != entries {
		t.Errorf("unlimited scan returned %d of %d entries", len(page), entries)
	}
}

// TestScanIntoTheCallersPage: a caller that brings a page with room for
// Limit entries gets the entries in it and allocates nothing, which is
// how the executor recycles one page from scan to scan. With less room,
// the entries found are copied in when they fit (a point lookup asks for
// 1024) and get a page of their own when they do not.
func TestScanIntoTheCallersPage(t *testing.T) {
	tr := idTree(20000)
	for _, tc := range []struct {
		name       string
		room       int
		opts       ScanOptions
		found      int
		ownArray   bool
		wantAllocs float64
	}{
		{"room for Limit", 64, ScanOptions{Low: []any{"user00005000"}, LowIncl: true, Limit: 50}, 50, true, 0},
		{"room for what is found", 4, sparseSpans[0].opts, 1, true, 0},
		{"too little room", 4, ScanOptions{Low: []any{"user00005000"}, LowIncl: true, Limit: 50}, 50, false, 1},
	} {
		buf := make([]ScanItem, 0, tc.room)
		opts := tc.opts
		opts.Page = buf
		n := math.Inf(1)
		for i := 0; i < 20; i++ { // the least of several runs: see TestScanPageAllocatesOnce
			n = min(n, testing.AllocsPerRun(1, func() {
				page := tr.Scan(opts)
				if len(page) != tc.found || (&page[:1][0] == &buf[:1][0]) != tc.ownArray {
					t.Fatalf("%s: %d entries, in the caller's page %v", tc.name, len(page), &page[:1][0] == &buf[:1][0])
				}
			}))
		}
		bounds := testing.AllocsPerRun(10, func() { scanBounds(opts) }) // the span's encoding
		if n-bounds != tc.wantAllocs {
			t.Errorf("%s: %.0f allocations per scan beside the bounds' %.0f, want %.0f", tc.name, n-bounds, bounds, tc.wantAllocs)
		}
	}
}

// TestPrimaryEntriesKeepFewObjects bounds what a primary index keeps
// live per entry, counted in heap objects, the collector's work: 10 000
// Replaces of fresh documents, their key lists made beforehand as the
// projector makes them. An entry is its ScanItem inline in a leaf and
// one key, which the back-index shares with the tree; the leaves, the
// interior nodes and the back-index's maps add a fraction. (A boxed
// ScanItem, and a back-index holding its own copies of the keys in a
// slice per document, made it 3.2.)
func TestPrimaryEntriesKeepFewObjects(t *testing.T) {
	const entries = 10000
	ids := make([]string, entries)
	secs := make([][][]any, entries)
	for i := range ids {
		ids[i] = fmt.Sprintf("user%08d", i)
		secs[i] = primaryEntries(ids[i])
	}
	tr := NewTree(nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, id := range ids {
		tr.Replace(i%64, id, secs[i], nil)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEntry := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / entries
	runtime.KeepAlive(tr)
	t.Logf("%.2f live heap objects per primary-index entry", perEntry)
	if perEntry > 1.5 {
		t.Errorf("%.2f live heap objects per primary-index entry, budget 1.5", perEntry)
	}
}

type spanCase struct {
	name string
	opts ScanOptions
	want int // entries the span holds, up to opts.Limit
}

// sparseSpans are spans that hold fewer entries than the page asks for,
// over idTree(20000) at the executor's page size: what every query
// without a LIMIT clause sends. A point lookup, the span's tail and an
// empty span are the common ones.
var sparseSpans = []spanCase{
	{"point", ScanOptions{EqualKey: []any{"user00005000"}, HasEqual: true, Limit: 1024}, 1},
	{"tail", ScanOptions{Low: []any{"user00019990"}, LowIncl: true, Limit: 1024}, 10},
	{"tailReverse", ScanOptions{High: []any{"user00000010"}, Limit: 1024, Reverse: true}, 10},
	{"empty", ScanOptions{EqualKey: []any{"nobody"}, HasEqual: true, Limit: 1024}, 0},
}

// TestScanPageFitsTheSpan: a page is sized by what the span yields, not
// by Limit. A span rarely holds Limit entries (only a LIMIT query over a
// dense range does), and a page with room for 1024 is 56 KiB allocated
// and zeroed for a point lookup. So the page has room for its entries
// and no more, and an empty span's page is nil.
func TestScanPageFitsTheSpan(t *testing.T) {
	tr := idTree(20000)
	for _, tc := range sparseSpans {
		page := tr.Scan(tc.opts)
		if len(page) != tc.want || cap(page) != tc.want || (tc.want == 0 && page != nil) {
			t.Errorf("%s: page of %d entries with room for %d, span holds %d", tc.name, len(page), cap(page), tc.want)
		}
	}
}

// parkingCount counts entries; armed, the next Merge parks until
// released, inside whichever read or write called it.
type parkingCount struct {
	armed            *atomic.Bool
	parked, released chan struct{}
}

func (parkingCount) Map([]byte, ScanItem) any { return 1.0 }
func (p parkingCount) Merge(parts ...any) any {
	if p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.released
	}
	n := 0.0
	for _, x := range parts {
		if x != nil {
			n += x.(float64)
		}
	}
	return n
}
func (parkingCount) Zero() any { return 0.0 }

// TestReadersShareTheTree parks one reader inside the tree's lock
// (Reduce merges under it) and requires every other read to return
// meanwhile, and a write not to.
func TestReadersShareTheTree(t *testing.T) {
	red := parkingCount{armed: new(atomic.Bool), parked: make(chan struct{}), released: make(chan struct{})}
	tr := NewTree(red)
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("user%08d", i)
		tr.Replace(i%64, id, [][]any{{id}}, nil)
	}
	release := sync.OnceFunc(func() { close(red.released) })
	defer release() // on a failure too, or the parked reader leaks
	var reduceDone sync.WaitGroup
	reduceDone.Add(1)
	red.armed.Store(true)
	go func() {
		defer reduceDone.Done()
		tr.Reduce(ScanOptions{})
	}()
	<-red.parked

	read := make(chan string, 4)
	go func() {
		defer close(read)
		if page := tr.Scan(ScanOptions{Limit: 10}); len(page) != 10 {
			read <- fmt.Sprintf("Scan returned %d entries", len(page))
		}
		if _, ok := tr.Get([]any{"user00000007"}, "user00000007"); !ok {
			read <- "Get missed an entry"
		}
		if n := len(tr.Scan(ScanOptions{})); n != 100 {
			read <- fmt.Sprintf("unlimited Scan returned %d entries", n)
		}
	}()
	select {
	case msg, failed := <-read:
		if failed {
			t.Fatal(msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Scan and Get wait for another reader to leave the tree")
	}

	// Only now: a queued writer holds later readers off an RWMutex.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		tr.Replace(0, "late", [][]any{{"late"}}, nil)
	}()
	select {
	case <-wrote:
		t.Fatal("Replace returned while a reader was inside the tree")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	<-wrote
	reduceDone.Wait()
	if n := tr.Reduce(ScanOptions{}); n != 101.0 {
		t.Fatalf("after the write: %v entries", n)
	}
}

// TestPagedScanUnderWriters pages forward and in reverse through a span
// while other goroutines replace, remove and purge: within one pass no
// page repeats an entry or steps backwards (the contract Scan's comment
// states) and every entry lies inside the span. Run under -race.
func TestPagedScanUnderWriters(t *testing.T) {
	const (
		docs    = 2000
		vbs     = 8
		writers = 3
		pagers  = 4
		passes  = 30
	)
	id := func(i int) string { return fmt.Sprintf("doc%05d", i) }
	tr := NewTree(nil)
	for i := 0; i < docs; i++ {
		tr.Replace(i%vbs, id(i), [][]any{{id(i)}}, nil)
	}
	low, high := id(docs/10), id(docs-docs/10)
	span := ScanOptions{Low: []any{low}, LowIncl: true, High: []any{high}, Limit: 7}

	var stop atomic.Bool
	var writing, paging sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				i := rng.Intn(docs)
				switch rng.Intn(20) {
				case 0:
					tr.PurgeVB(rng.Intn(vbs))
				case 1, 2, 3:
					tr.Replace(i%vbs, id(i), nil, nil)
				default:
					tr.Replace(i%vbs, id(i), [][]any{{id(i)}}, nil)
				}
			}
		}(w)
	}
	for p := 0; p < pagers; p++ {
		paging.Add(1)
		go func(reverse bool) {
			defer paging.Done()
			for pass := 0; pass < passes; pass++ {
				opts := span
				opts.Reverse = reverse
				var prev []byte
				for {
					page := tr.Scan(opts)
					for _, it := range page {
						k := TreeKey(it.SecKey, it.DocID)
						if c := bytes.Compare(k, prev); prev != nil && (c == 0 || (c < 0) != reverse) {
							t.Errorf("reverse %v: %s follows %q", reverse, it.DocID, prev)
							return
						}
						if it.DocID < low || it.DocID >= high {
							t.Errorf("%s is outside [%s, %s)", it.DocID, low, high)
							return
						}
						prev = k
					}
					if !opts.More(len(page)) {
						break
					}
					opts.After = &page[len(page)-1]
				}
			}
		}(p%2 == 1)
	}
	paging.Wait()
	stop.Store(true)
	writing.Wait()
}

// BenchmarkTreeScan is one page on every benchmark goroutine at once:
// run with -cpu 1,2 to see whether two scanners scale, and read
// allocs/op and B/op for what a page costs. dense is workload E's page
// (LIMIT 50 from a key in the middle of 20 000 entries); the others are
// sparseSpans, where B/op must follow the entries found, not the 1024
// asked for.
func BenchmarkTreeScan(b *testing.B) {
	tr := idTree(20000)
	dense := spanCase{"dense", ScanOptions{Low: []any{"user00005000"}, LowIncl: true, Limit: 50}, 50}
	for _, tc := range append([]spanCase{dense}, sparseSpans...) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if page := tr.Scan(tc.opts); len(page) != tc.want {
						b.Error(len(page))
						return
					}
				}
			})
		})
	}
}
