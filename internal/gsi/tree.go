package gsi

import (
	"bytes"
	"sync"
	"sync/atomic"

	"couchgo/internal/btree"
	"couchgo/internal/value"
)

// ScanItem is one index entry, as stored in a Tree and as returned by a
// scan.
type ScanItem struct {
	DocID  string
	SecKey []any // the indexed values (covering scans project these)
	// Value rides with the entry: a view's emitted value (what its
	// reducer aggregates), the analytics shadow's document, nil for GSI.
	Value any
}

// ScanOptions bound an index scan. Low/High are composite key prefixes
// in collation order; nil means unbounded.
type ScanOptions struct {
	Low, High         []any
	LowIncl, HighIncl bool
	// EqualKey scans exactly one key (overrides Low/High).
	EqualKey []any
	HasEqual bool
	// Limit is the page size: the scan returns at most this many entries
	// (0 = unlimited). A page shorter than Limit ends the span.
	Limit   int
	Reverse bool
	// After resumes a paged scan strictly after this entry in scan
	// direction, normally the last entry of the previous page; nil
	// starts at the span's edge.
	After *ScanItem
	// Consistency: nil = not_bounded ("the query can return data that
	// is currently indexed"); non-nil = request_plus ("requires all
	// mutations, up to the moment of the query request, to be
	// processed before query execution"). Whoever owns the feed waits
	// for the vector (Service.Scan on the keyspace projector's, a view
	// engine on the view's); a Tree never waits.
	WaitSeqnos map[int]uint64
}

// More reports whether a page of n entries may have a successor: a page
// shorter than Limit ends the span, and so does an unlimited scan.
func (o ScanOptions) More(n int) bool { return o.Limit > 0 && n >= o.Limit }

// Tree is the secondary-index tree every index placement holds: a GSI
// partition, a data node's view index, the analytics shadow's primary
// index. Entries sort by TreeKey; a back-index per vBucket finds a
// document's entries to replace them and a partition's to purge them.
// Safe for concurrent use: readers (Scan, Get, Count, Reduce, EachDoc,
// Stats) share mu, a scan for its page only; Replace and PurgeVB take it
// exclusively. Bounds and tree keys are encoded before the lock is taken
// and a page is allocated after it is released, so a holder does not
// wait on the allocator with others queued behind it.
type Tree struct {
	mu      sync.RWMutex
	tree    *btree.Tree
	back    map[int]map[string][][]byte // vb -> docID -> tree keys
	visited atomic.Int64                // added once per read, after the unlock
}

// NewTree creates an empty tree. reducer, when non-nil, keeps a view's
// pre-computed aggregates in the interior nodes (it is handed each
// entry's ScanItem) and makes Reduce answer from them.
func NewTree(reducer btree.Reducer) *Tree {
	return &Tree{tree: btree.New(reducer), back: make(map[int]map[string][][]byte)}
}

// TreeKey is an entry's key in the tree: the encoded secondary key
// values, a 0x00 separator, then the document ID — unique per (key,
// document) and ordered by collation.
func TreeKey(sec []any, docID string) []byte {
	enc := value.EncodeKey(sec)
	out := make([]byte, 0, len(enc)+1+len(docID))
	out = append(out, enc...)
	out = append(out, 0x00)
	return append(out, docID...)
}

// Replace makes secs the document's whole contribution: its previous
// entries go, one entry per key in secs (each carrying val) comes.
// Empty secs removes the document. It reports whether the tree changed.
func (t *Tree) Replace(vb int, docID string, secs [][]any, val any) bool {
	keys := make([][]byte, len(secs))
	for i, sec := range secs {
		keys[i] = TreeKey(sec, docID)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	docs := t.back[vb]
	old := docs[docID]
	for _, tk := range old {
		t.tree.Delete(tk)
	}
	if len(secs) == 0 {
		delete(docs, docID)
		return len(old) > 0
	}
	if docs == nil {
		docs = make(map[string][][]byte)
		t.back[vb] = docs
	}
	for i, sec := range secs {
		t.tree.Set(keys[i], ScanItem{DocID: docID, SecKey: sec, Value: val})
	}
	docs[docID] = keys
	return true
}

// PurgeVB drops one vBucket's contribution entirely. Holders call it
// when the partition leaves the node (rebalance, §4.3.3) and on a feed
// rollback, when a promoted copy's history is shorter than what was
// applied and the partition is re-streamed.
func (t *Tree) PurgeVB(vb int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, keys := range t.back[vb] {
		for _, tk := range keys {
			t.tree.Delete(tk)
		}
	}
	delete(t.back, vb)
}

// scanScratch holds the buffers limited scans walk into, cleared before
// they come back. One grows to the largest page it has served, up to
// scratchEntries (56 KiB, the executor's page size); a larger one is not
// kept.
var scanScratch = sync.Pool{New: func() any { return new([]ScanItem) }}

const scratchEntries = 1024

// Scan serves one page of a range or equality scan: the first
// opts.Limit entries of the span after opts.After. The read lock is held
// for the page only, so a caller paging through a span sees each page as
// of its own moment: entries never repeat or go backwards, but mutations
// applied between pages show up in later pages only.
//
// The page is sized by what the span yields, not by Limit: a query
// without a LIMIT asks for 1024 entries and usually finds a few, or one.
// A limited scan walks into a pooled buffer and copies out exactly what
// it found after the unlock: one allocation however many entries, none
// for an empty span, none under the lock once the buffer has served a
// page as long. An unlimited scan grows its page as it walks and returns
// it as it is.
func (t *Tree) Scan(opts ScanOptions) []ScanItem {
	lo, hi := scanBounds(opts)
	var items []ScanItem
	var scratch *[]ScanItem
	if opts.Limit > 0 {
		scratch = scanScratch.Get().(*[]ScanItem)
		items = (*scratch)[:0]
	}
	visit := func(_ []byte, v any) bool {
		items = append(items, v.(ScanItem))
		return opts.Limit == 0 || len(items) < opts.Limit
	}
	t.mu.RLock()
	if opts.Reverse {
		t.tree.Descend(lo, hi, visit)
	} else {
		t.tree.Ascend(lo, hi, visit)
	}
	t.mu.RUnlock()
	t.visited.Add(int64(len(items)))
	if scratch == nil {
		return items
	}
	var page []ScanItem
	if len(items) > 0 {
		page = append(make([]ScanItem, 0, len(items)), items...)
	}
	if cap(items) <= scratchEntries {
		clear(items)
		*scratch = items
		scanScratch.Put(scratch)
	}
	return page
}

// Get returns a document's entry under one key.
func (t *Tree) Get(sec []any, docID string) (ScanItem, bool) {
	tk := TreeKey(sec, docID)
	t.mu.RLock()
	v, ok := t.tree.Get(tk)
	t.mu.RUnlock()
	if !ok {
		return ScanItem{}, false
	}
	t.visited.Add(1)
	return v.(ScanItem), true
}

// Count counts the span's entries without materializing them.
func (t *Tree) Count(opts ScanOptions) int {
	lo, hi := scanBounds(opts)
	n := 0
	t.mu.RLock()
	t.tree.Ascend(lo, hi, func(_ []byte, _ any) bool { n++; return true })
	t.mu.RUnlock()
	t.visited.Add(int64(n))
	return n
}

// Reduce aggregates the span from the reducer's annotations in the
// tree's interior nodes, O(log n) (§4.3.3).
func (t *Tree) Reduce(opts ScanOptions) any {
	lo, hi := scanBounds(opts)
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tree.ReduceRange(lo, hi)
}

// EachDoc calls fn with every document's vBucket and keys, in no
// particular order, under the read lock: fn must not write to the tree.
func (t *Tree) EachDoc(fn func(vb int, docID string, secs [][]any)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for vb, docs := range t.back {
		for docID, keys := range docs {
			secs := make([][]any, len(keys))
			for i, tk := range keys {
				v, _ := t.tree.Get(tk)
				secs[i] = v.(ScanItem).SecKey
			}
			fn(vb, docID, secs)
		}
	}
}

// TreeStats reports a tree's size and how many entries its reads have
// visited since it was created.
type TreeStats struct {
	Entries, Docs, Visited int
}

// Stats returns current counters.
func (t *Tree) Stats() TreeStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := TreeStats{Entries: t.tree.Len(), Visited: int(t.visited.Load())}
	for _, docs := range t.back {
		st.Docs += len(docs)
	}
	return st
}

// scanBounds converts composite bounds into tree-key bounds.
//
// Low/High have *prefix semantics*: an entry qualifies by comparing its
// first len(bound) key positions against the bound. So High=["SF"]
// inclusive matches every entry whose leading key is "SF" regardless of
// trailing positions, and Low=["SF"] exclusive skips them all — exactly
// the spans a planner generates for predicates on a composite index's
// leading keys.
//
// Byte translation: strip the bound encoding's array terminator to get
// prefix P. Every entry whose leading positions equal the bound starts
// with P and continues with a byte < 0xFF (a type tag or terminator),
// so P itself is the inclusive lower edge and P||0xFF is the exclusive
// upper edge of the "equal prefix" region.
//
// A continuation narrows the span from its leading edge: the entry's
// tree key is the exclusive upper bound of a descending scan, and its
// immediate successor (key‖0x00) the inclusive lower bound of an
// ascending one.
func scanBounds(opts ScanOptions) (lo, hi []byte) {
	switch {
	case opts.HasEqual:
		enc := value.EncodeKey(opts.EqualKey)
		lo = append(append([]byte{}, enc...), 0x00)
		hi = append(append([]byte{}, enc...), 0x01)
	default:
		if opts.Low != nil {
			lo = prefixEncode(opts.Low)
			if !opts.LowIncl {
				lo = append(lo, 0xFF)
			}
		}
		if opts.High != nil {
			hi = prefixEncode(opts.High)
			if opts.HighIncl {
				hi = append(hi, 0xFF)
			}
		}
	}
	if opts.After == nil {
		return lo, hi
	}
	k := TreeKey(opts.After.SecKey, opts.After.DocID)
	if opts.Reverse {
		if hi == nil || bytes.Compare(k, hi) < 0 {
			hi = k
		}
	} else if k = append(k, 0x00); bytes.Compare(k, lo) > 0 {
		lo = k
	}
	return lo, hi
}

// prefixEncode encodes a composite key as an open prefix (terminator
// stripped) so it sorts before any extension of itself.
func prefixEncode(sec []any) []byte {
	enc := value.EncodeKey(sec)
	// EncodeKey of an array ends with its 0x00 terminator; strip it.
	if len(enc) > 0 && enc[len(enc)-1] == 0x00 {
		enc = enc[:len(enc)-1]
	}
	return enc
}

// MergePages k-way merges one scan's pages from every holder of an
// index — a GSI index's partitions, a view's data nodes — each already
// in tree-key order (reversed for a descending scan), and keeps the
// first limit entries (0 = all). Those are the index's page, since no
// entry past a holder's page can sort before one inside it.
func MergePages(pages [][]ScanItem, reverse bool, limit int) []ScanItem {
	if len(pages) == 1 {
		return pages[0]
	}
	total := 0
	for _, p := range pages {
		total += len(p)
	}
	if limit > 0 && total > limit {
		total = limit
	}
	out := make([]ScanItem, 0, total)
	// heads[p] is the tree key of page p's next entry, nil once spent.
	heads := make([][]byte, len(pages))
	pos := make([]int, len(pages))
	advance := func(p int) {
		heads[p] = nil
		if pos[p] < len(pages[p]) {
			heads[p] = TreeKey(pages[p][pos[p]].SecKey, pages[p][pos[p]].DocID)
		}
	}
	for p := range pages {
		advance(p)
	}
	for len(out) < total {
		best := -1
		for p, k := range heads {
			if k == nil {
				continue
			}
			if best >= 0 {
				c := bytes.Compare(k, heads[best])
				if reverse {
					c = -c
				}
				if c >= 0 {
					continue
				}
			}
			best = p
		}
		out = append(out, pages[best][pos[best]])
		pos[best]++
		advance(best)
	}
	return out
}
