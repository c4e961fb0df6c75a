package gsi

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"couchgo/internal/dcp"
)

// checkPagedScan pages through a span pageSize entries at a time
// (0 = unpaged) while another goroutine keeps applying mutations, and
// checks the continuation contract: no entry repeats, none is out of
// scan order, and the entries no mutation touched come out exactly as
// one scan of a quiet index returns them.
func checkPagedScan(t *testing.T, seed int64, pageSize, parts int, lowN, highN float64, reverse bool) {
	t.Helper()
	svc := NewService("") // memory-optimized: nothing is written
	defer svc.Close()
	def := Def{Name: "n", Keyspace: "ks", SecExprs: []string{"n"}, Mode: MemoryOptimized, NumPartitions: parts}
	if err := svc.CreateIndex(def); err != nil {
		t.Fatal(err)
	}
	st := svc.indexes[indexKey("ks", "n")]
	var seq uint64
	apply := func(id string, n int) {
		seq++
		m := dcp.Mutation{Key: id, Seqno: seq, Deleted: n < 0}
		if n >= 0 {
			m.Value = []byte(fmt.Sprintf(`{"n": %d}`, n))
		}
		routeTo(st, 0, m)
	}
	// Few distinct keys over many documents: equal keys straddle page
	// edges and, with 4 partitions, partition edges.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 150; i++ {
		apply(fmt.Sprintf("quiet%03d", i), rng.Intn(8))
	}
	opts := ScanOptions{Reverse: reverse}
	if lowN <= highN {
		opts.Low, opts.LowIncl = []any{lowN}, true
		opts.High, opts.HighIncl = []any{highN}, rng.Intn(2) == 0
	}
	ctx := context.Background()
	quiet, err := svc.Scan(ctx, "ks", "n", opts)
	if err != nil {
		t.Fatal(err)
	}

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
		page, err := svc.Scan(ctx, "ks", "n", opts)
		if err != nil {
			t.Fatal(err)
		}
		if pageSize > 0 && len(page) > pageSize {
			t.Fatalf("page of %d entries for Limit %d", len(page), pageSize)
		}
		if got = append(got, page...); len(got) > 1000 {
			t.Fatalf("paging an index of under 200 entries returned %d", len(got))
		}
		if pageSize == 0 || len(page) < pageSize {
			break
		}
		opts.After = &page[len(page)-1]
	}
	close(stop)
	churn.Wait()

	var untouched []ScanItem
	for i, it := range got {
		if i > 0 {
			c := bytes.Compare(indexTreeKey(got[i-1].SecKey, got[i-1].DocID), indexTreeKey(it.SecKey, it.DocID))
			if reverse {
				c = -c
			}
			if c >= 0 {
				t.Fatalf("entry %d %v does not follow %v in scan order", i, it, got[i-1])
			}
		}
		if it.DocID < "quiet" {
			continue
		}
		untouched = append(untouched, it)
	}
	if len(untouched) != len(quiet) {
		t.Fatalf("%d untouched entries paged, %d in one scan", len(untouched), len(quiet))
	}
	for i := range quiet {
		if untouched[i].DocID != quiet[i].DocID || untouched[i].SecKey[0] != quiet[i].SecKey[0] {
			t.Fatalf("entry %d: paged %v, one scan %v", i, untouched[i], quiet[i])
		}
	}
}

func TestPagedScanMatchesOneScan(t *testing.T) {
	for _, parts := range []int{1, 4} {
		for _, reverse := range []bool{false, true} {
			for _, pageSize := range []int{1, 2, 7, 0} {
				checkPagedScan(t, 42, pageSize, parts, 1, 0, reverse) // whole index
				checkPagedScan(t, 43, pageSize, parts, 2, 5, reverse)
			}
		}
	}
}

func FuzzPagedScan(f *testing.F) {
	f.Add(int64(1), uint8(1), false, false, uint8(0), uint8(7))
	f.Add(int64(2), uint8(7), true, true, uint8(3), uint8(3))
	f.Add(int64(3), uint8(0), true, false, uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, pageSize uint8, fourParts, reverse bool, low, high uint8) {
		parts := 1
		if fourParts {
			parts = 4
		}
		checkPagedScan(t, seed, int(pageSize%16), parts, float64(low%9), float64(high%9), reverse)
	})
}
