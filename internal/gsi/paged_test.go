package gsi

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"

	"couchgo/internal/dcp"
)

// holder is one placement of the index tree: who applies a document's
// entries to which Tree, and how one page of the whole index is read.
// apply indexes document id under n (n < 0 deletes it); bound is the
// span bound that stands for n in the holder's key space.
type holder struct {
	name  string
	apply func(vb int, id string, seqno uint64, n int)
	scan  func(opts ScanOptions) []ScanItem
	bound func(n float64) []any
}

func numberBound(n float64) []any { return []any{n} }

// gsiHolder is a GSI index of the given partition count on key n,
// maintained through the projector's router and read through
// Service.Scan.
func gsiHolder(t *testing.T, parts int) holder {
	svc := NewService("") // memory-optimized: nothing is written
	t.Cleanup(svc.Close)
	def := Def{Name: "n", Keyspace: "ks", SecExprs: []string{"n"}, Mode: MemoryOptimized, NumPartitions: parts}
	if err := svc.CreateIndex(def); err != nil {
		t.Fatal(err)
	}
	st := svc.indexes[indexKey("ks", "n")]
	return holder{
		name: fmt.Sprintf("gsi/%d", parts),
		apply: func(vb int, id string, seqno uint64, n int) {
			m := dcp.Mutation{Key: id, Seqno: seqno, Deleted: n < 0}
			if n >= 0 {
				m.Value = []byte(fmt.Sprintf(`{"n": %d}`, n))
			}
			project(vb, m, st)
		},
		scan: func(opts ScanOptions) []ScanItem {
			page, err := svc.Scan(context.Background(), "ks", "n", opts)
			if err != nil {
				t.Fatal(err)
			}
			return page
		},
		bound: numberBound,
	}
}

// countReducer stands for a view's reduce function.
type countReducer struct{}

func (countReducer) Map([]byte, any) any { return 1.0 }
func (countReducer) Zero() any           { return 0.0 }
func (countReducer) Merge(parts ...any) any {
	total := 0.0
	for _, p := range parts {
		total += p.(float64)
	}
	return total
}

// viewHolder is a view emitting (n, n) on three data nodes, each
// holding the vBuckets it is active for in a tree built with the view's
// reducer; a page of the index is the nodes' pages merged, as
// core.scanViewIndex merges them.
func viewHolder(*testing.T) holder {
	nodes := []*Tree{NewTree(countReducer{}), NewTree(countReducer{}), NewTree(countReducer{})}
	return holder{
		name: "view/3 nodes",
		apply: func(vb int, id string, _ uint64, n int) {
			var secs [][]any
			if n >= 0 {
				secs = [][]any{{float64(n)}}
			}
			nodes[vb%len(nodes)].Replace(vb, id, secs, float64(n))
		},
		scan: func(opts ScanOptions) []ScanItem {
			pages := make([][]ScanItem, len(nodes))
			for i, node := range nodes {
				pages[i] = node.Scan(opts)
			}
			return MergePages(pages, opts.Reverse, opts.Limit)
		},
		bound: numberBound,
	}
}

// shadowHolder is the analytics shadow: one tree keyed by document ID
// whose entries carry the document.
func shadowHolder(*testing.T) holder {
	tree := NewTree(nil)
	return holder{
		name: "analytics primary",
		apply: func(vb int, id string, _ uint64, n int) {
			var secs [][]any
			if n >= 0 {
				secs = [][]any{{id}}
			}
			tree.Replace(vb, id, secs, map[string]any{"n": float64(n)})
		},
		scan:  tree.Scan,
		bound: func(n float64) []any { return []any{fmt.Sprintf("quiet%03d", int(n)*17)} },
	}
}

var holders = []func(*testing.T) holder{
	func(t *testing.T) holder { return gsiHolder(t, 1) },
	func(t *testing.T) holder { return gsiHolder(t, 4) },
	viewHolder,
	shadowHolder,
}

// checkPagedScan pages through a span pageSize entries at a time
// (0 = unpaged) while another goroutine keeps applying mutations, and
// checks the continuation contract: no page exceeds its size, no entry
// repeats, none is out of scan order, and the entries no mutation
// touched come out exactly as one scan of a quiet index returns them.
func checkPagedScan(t *testing.T, h holder, seed int64, pageSize int, lowN, highN float64, reverse bool) {
	t.Helper()
	var seq uint64
	apply := func(id string, n int) {
		seq++
		h.apply(int(crc32.ChecksumIEEE([]byte(id))%6), id, seq, n)
	}
	// Few distinct keys over many documents: equal keys straddle page
	// edges and the edges between partitions and between nodes.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 150; i++ {
		apply(fmt.Sprintf("quiet%03d", i), rng.Intn(8))
	}
	opts := ScanOptions{Reverse: reverse}
	if lowN <= highN {
		opts.Low, opts.LowIncl = h.bound(lowN), true
		opts.High, opts.HighIncl = h.bound(highN), rng.Intn(2) == 0
	}
	quiet := h.scan(opts)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				apply(fmt.Sprintf("churn%02d", rng.Intn(40)), rng.Intn(9)-1)
			}
		}
	}()

	var got []ScanItem
	opts.Limit = pageSize
	for {
		page := h.scan(opts)
		if pageSize > 0 && len(page) > pageSize {
			t.Fatalf("%s: page of %d entries for Limit %d", h.name, len(page), pageSize)
		}
		if got = append(got, page...); len(got) > 1000 {
			t.Fatalf("%s: paging an index of under 200 entries returned %d", h.name, len(got))
		}
		if !opts.More(len(page)) {
			break
		}
		opts.After = &page[len(page)-1]
	}
	close(stop)
	churn.Wait()

	var untouched []ScanItem
	for i, it := range got {
		if i > 0 {
			c := bytes.Compare(TreeKey(got[i-1].SecKey, got[i-1].DocID), TreeKey(it.SecKey, it.DocID))
			if reverse {
				c = -c
			}
			if c >= 0 {
				t.Fatalf("%s: entry %d %v does not follow %v in scan order", h.name, i, it, got[i-1])
			}
		}
		if it.DocID < "quiet" {
			continue
		}
		untouched = append(untouched, it)
	}
	if len(untouched) != len(quiet) {
		t.Fatalf("%s: %d untouched entries paged, %d in one scan", h.name, len(untouched), len(quiet))
	}
	for i := range quiet {
		if untouched[i].DocID != quiet[i].DocID || untouched[i].SecKey[0] != quiet[i].SecKey[0] {
			t.Fatalf("%s: entry %d: paged %v, one scan %v", h.name, i, untouched[i], quiet[i])
		}
	}
}

func TestPagedScanMatchesOneScan(t *testing.T) {
	for _, mk := range holders {
		for _, reverse := range []bool{false, true} {
			for _, pageSize := range []int{1, 2, 7, 0} {
				checkPagedScan(t, mk(t), 42, pageSize, 1, 0, reverse) // whole index
				checkPagedScan(t, mk(t), 43, pageSize, 2, 5, reverse)
			}
		}
	}
}

func FuzzPagedScan(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), false, uint8(0), uint8(7))
	f.Add(int64(2), uint8(7), uint8(1), true, uint8(3), uint8(3))
	f.Add(int64(3), uint8(0), uint8(2), false, uint8(5), uint8(2))
	f.Add(int64(4), uint8(3), uint8(3), true, uint8(1), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, pageSize, which uint8, reverse bool, low, high uint8) {
		h := holders[int(which)%len(holders)](t)
		checkPagedScan(t, h, seed, int(pageSize%16), float64(low%9), float64(high%9), reverse)
	})
}

// TestViewReduceOverSharedBounds checks that a tree built with a reducer
// aggregates exactly the entries a scan of the same span returns, for
// every span shape scanBounds translates.
func TestViewReduceOverSharedBounds(t *testing.T) {
	tree := NewTree(countReducer{})
	for i := 0; i < 500; i++ {
		tree.Replace(i%7, fmt.Sprintf("d%03d", i), [][]any{{float64(i % 11)}}, nil)
	}
	for _, opts := range []ScanOptions{
		{},
		{EqualKey: []any{3.0}, HasEqual: true},
		{Low: []any{2.0}, LowIncl: true, High: []any{6.0}, HighIncl: true},
		{Low: []any{2.0}, High: []any{6.0}},
		{High: []any{4.0}, HighIncl: true},
	} {
		if got, want := tree.Reduce(opts), float64(len(tree.Scan(opts))); got != want {
			t.Errorf("%+v: reduced %v entries, scanned %v", opts, got, want)
		}
	}
	tree.PurgeVB(3)
	if got, want := tree.Reduce(ScanOptions{}), float64(tree.Stats().Entries); got != want || want >= 500 {
		t.Errorf("after purging a vBucket: reduced %v of %v entries", got, want)
	}
}
