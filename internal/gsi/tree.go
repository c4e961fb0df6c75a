package gsi

import (
	"bytes"
	"slices"
	"sync"

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
	// Page is the caller's buffer for the page, nil for none: a Tree
	// writes the entries into it from its start and returns it when it
	// has room for them, so a caller that pages repeatedly, or runs many
	// scans, recycles one buffer instead of allocating a page per scan.
	// The page returned is the caller's either way. A holder that merges
	// pages from several trees gives each tree none.
	Page []ScanItem
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
// index. Entries sort by TreeKey and are held inline in the leaves, one
// ScanItem each, with no box of their own; a back-index per vBucket
// finds a document's entries to replace them and a partition's to purge
// them, sharing the tree's copy of each key. Safe for concurrent use:
// readers (Scan, Get, Reduce) share mu, a scan for its page only;
// Replace and PurgeVB take it exclusively. Bounds and tree keys are
// encoded before the lock is taken and a page is allocated after it is
// released, so a holder does not wait on the allocator with others
// queued behind it.
type Tree struct {
	mu   sync.RWMutex
	tree *btree.Tree[ScanItem]
	back map[int]map[string]docKeys // vb -> docID -> the document's keys
}

// docKeys are one document's keys in the tree, the tree's own copies:
// first, and the rest when an array index gives the document several.
// A document's usual one key costs the back-index no object of its own.
type docKeys struct {
	first []byte
	rest  [][]byte
}

// each calls fn with every key.
func (d docKeys) each(fn func(tk []byte)) {
	if d.first != nil {
		fn(d.first)
	}
	for _, tk := range d.rest {
		fn(tk)
	}
}

// NewTree creates an empty tree. reducer, when non-nil, keeps a view's
// pre-computed aggregates in the interior nodes (it is handed each
// entry's ScanItem) and makes Reduce answer from them.
func NewTree(reducer btree.Reducer[ScanItem]) *Tree {
	return &Tree{tree: btree.New(reducer), back: make(map[int]map[string]docKeys)}
}

// TreeKey is an entry's key in the tree: the encoded secondary key
// values, a 0x00 separator, then the document ID — unique per (key,
// document) and ordered by collation.
func TreeKey(sec []any, docID string) []byte {
	return append(append(value.EncodeKey(sec), 0x00), docID...)
}

// Replace makes secs the document's whole contribution: its previous
// entries go, one entry per key in secs (each carrying val) comes.
// Empty secs removes the document. It reports whether the tree changed.
// A key the document keeps (a primary index's always) keeps its place
// and only has its entry replaced.
func (t *Tree) Replace(vb int, docID string, secs [][]any, val any) bool {
	var one [1][]byte // a document's usual number of keys, off the heap
	keys := one[:0]
	if len(secs) > len(one) {
		keys = make([][]byte, 0, len(secs))
	}
	for _, sec := range secs {
		keys = append(keys, TreeKey(sec, docID))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	docs := t.back[vb]
	old, had := docs[docID]
	old.each(func(tk []byte) {
		if !slices.ContainsFunc(keys, func(k []byte) bool { return bytes.Equal(k, tk) }) {
			t.tree.Delete(tk)
		}
	})
	if len(secs) == 0 {
		delete(docs, docID)
		return had
	}
	if docs == nil {
		docs = make(map[string]docKeys)
		t.back[vb] = docs
	}
	var dk docKeys
	if len(secs) > 1 {
		dk.rest = make([][]byte, 0, len(secs)-1)
	}
	for i, sec := range secs {
		tk, _ := t.tree.Set(keys[i], ScanItem{DocID: docID, SecKey: sec, Value: val})
		if i == 0 {
			dk.first = tk
		} else {
			dk.rest = append(dk.rest, tk)
		}
	}
	docs[docID] = dk
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
		keys.each(func(tk []byte) { t.tree.Delete(tk) })
	}
	delete(t.back, vb)
}

// scanScratch holds the buffers limited scans walk into when their
// caller brings no page, cleared before they come back. One grows to the
// largest page it has served, up to scratchEntries (56 KiB, the
// executor's page size); a larger one is not kept.
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
// A limited scan walks straight into the caller's page (opts.Page) when
// that has room for Limit entries: no allocation and no copy. Otherwise
// it walks into a pooled buffer and copies out what it found after the
// unlock, into the caller's page when that has room and else into one
// allocated exactly as long: one allocation at most however many
// entries, none for an empty span, none under the lock once the buffer
// has served a page as long. An unlimited scan grows its page as it
// walks and returns it as it is.
func (t *Tree) Scan(opts ScanOptions) []ScanItem {
	lo, hi := scanBounds(opts)
	items := opts.Page[:0]
	var scratch *[]ScanItem
	if opts.Limit > 0 && cap(opts.Page) < opts.Limit {
		scratch = scanScratch.Get().(*[]ScanItem)
		items = (*scratch)[:0]
	}
	visit := func(_ []byte, v ScanItem) bool {
		items = append(items, v)
		return opts.Limit == 0 || len(items) < opts.Limit
	}
	t.mu.RLock()
	if opts.Reverse {
		t.tree.Descend(lo, hi, visit)
	} else {
		t.tree.Ascend(lo, hi, visit)
	}
	t.mu.RUnlock()
	if scratch == nil {
		return items
	}
	page := opts.Page[:0]
	if cap(page) < len(items) {
		page = make([]ScanItem, 0, len(items))
	}
	page = append(page, items...)
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
	defer t.mu.RUnlock()
	return t.tree.Get(tk)
}

// Reduce aggregates the span from the reducer's annotations in the
// tree's interior nodes, O(log n) (§4.3.3).
func (t *Tree) Reduce(opts ScanOptions) any {
	lo, hi := scanBounds(opts)
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tree.ReduceRange(lo, hi)
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
