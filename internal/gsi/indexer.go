package gsi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"couchgo/internal/btree"
	"couchgo/internal/value"
)

// KeyVersion is the maintenance message flowing projector → router →
// indexer: the set of secondary keys a document now contributes to one
// index. Empty Entries means "remove any previous contribution" (the
// document was deleted or stopped qualifying).
type KeyVersion struct {
	Index string
	VB    int
	Seqno uint64
	DocID string
	// Entries are composite secondary keys ([]any per entry; several
	// for array indexes).
	Entries [][]any
}

// ScanItem is one index scan result.
type ScanItem struct {
	DocID  string
	SecKey []any // the indexed values (covering scans project these)
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
	// processed before query execution"). Service.Scan waits for the
	// vector on the keyspace projector's feed; a partition never waits.
	WaitSeqnos map[int]uint64
}

// Indexer maintains one partition of one index — "the indexer
// component processes the changes received from the router and manages
// the on-disk index tree data structure".
type Indexer struct {
	def  *compiledDef
	part int

	mu   sync.Mutex
	tree *btree.Tree
	back map[string][][]byte // docID -> tree keys
	// lastSeq guards against out-of-order redelivery: the initial-build
	// backfill stream races the steady-state projector stream, and a
	// document's index contribution must only ever move forward.
	lastSeq map[string]uint64
	// docVB records which vBucket last contributed each document, so
	// PurgeVB can drop one partition's state on rollback.
	docVB  map[string]int
	closed bool

	// Standard mode: the append-only maintenance log (real disk I/O on
	// the maintenance path, as with the on-disk index of 4.1).
	log        *os.File
	logW       *bufio.Writer
	pendingOps int
}

// NewStandaloneIndexer compiles def and creates a single-partition
// indexer outside a Service — benchmarks and embedding use it to
// exercise the maintenance path in isolation.
func NewStandaloneIndexer(def Def, logPath string) (*Indexer, error) {
	cd, err := compileDef(def)
	if err != nil {
		return nil, err
	}
	return NewIndexer(cd, 0, logPath)
}

// NewIndexer creates a partition indexer. logPath is required for
// Standard mode and ignored for MemoryOptimized.
func NewIndexer(cd *compiledDef, part int, logPath string) (*Indexer, error) {
	ix := &Indexer{
		def:     cd,
		part:    part,
		tree:    btree.New(nil),
		back:    make(map[string][][]byte),
		lastSeq: make(map[string]uint64),
		docVB:   make(map[string]int),
	}
	if cd.Mode == Standard {
		f, err := os.OpenFile(logPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		ix.log = f
		ix.logW = bufio.NewWriter(f)
	}
	return ix, nil
}

// treeKey is the composite tree key: encoded secondary key values,
// 0x00 separator, then the document ID.
func indexTreeKey(sec []any, docID string) []byte {
	enc := value.EncodeKey(sec)
	out := make([]byte, 0, len(enc)+1+len(docID))
	out = append(out, enc...)
	out = append(out, 0x00)
	return append(out, docID...)
}

// Apply installs one key version. Calls arrive in per-vBucket seqno
// order from the router.
func (ix *Indexer) Apply(kv KeyVersion) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return
	}
	if kv.Seqno <= ix.lastSeq[kv.DocID] {
		// Stale or duplicate delivery (backfill racing the live feed).
		return
	}
	mIndexed.Inc()
	ix.lastSeq[kv.DocID] = kv.Seqno
	ix.docVB[kv.DocID] = kv.VB
	old := ix.back[kv.DocID]
	for _, tk := range old {
		ix.tree.Delete(tk)
	}
	delete(ix.back, kv.DocID)
	var keys [][]byte
	for _, sec := range kv.Entries {
		tk := indexTreeKey(sec, kv.DocID)
		ix.tree.Set(tk, ScanItem{DocID: kv.DocID, SecKey: sec})
		keys = append(keys, tk)
	}
	if keys != nil {
		ix.back[kv.DocID] = keys
	}
	if ix.logW != nil && (len(old) > 0 || len(keys) > 0) {
		ix.appendLogLocked(kv)
	}
}

// appendLogLocked writes the maintenance op to the disk log. Flushed
// (with the real write syscall) every few ops — the disk dependence the
// memory-optimized mode of §6.1.1 removes.
func (ix *Indexer) appendLogLocked(kv KeyVersion) {
	var hdr [14]byte
	binary.LittleEndian.PutUint64(hdr[0:], kv.Seqno)
	binary.LittleEndian.PutUint16(hdr[8:], uint16(len(kv.DocID)))
	binary.LittleEndian.PutUint32(hdr[10:], uint32(len(kv.Entries)))
	ix.logW.Write(hdr[:])
	ix.logW.WriteString(kv.DocID)
	for _, sec := range kv.Entries {
		enc := value.EncodeKey(sec)
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(enc)))
		ix.logW.Write(l[:])
		ix.logW.Write(enc)
	}
	ix.pendingOps++
	if ix.pendingOps >= 16 {
		// Commit the batch: flush and fsync, the disk dependence of the
		// standard (4.1) mode that §6.1.1's memory-optimized indexes
		// remove from the maintenance path.
		ix.logW.Flush()
		ix.log.Sync()
		ix.pendingOps = 0
	}
}

// PurgeVB drops one vBucket's contribution entirely: tree entries,
// back-index rows and seqno guards. The feed layer calls it on
// rollback, when a promoted copy's history is shorter than what this
// partition already applied; clearing lastSeq is what lets the
// re-streamed (lower-seqno) versions apply again.
func (ix *Indexer) PurgeVB(vb int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return
	}
	for doc, dvb := range ix.docVB {
		if dvb != vb {
			continue
		}
		for _, tk := range ix.back[doc] {
			ix.tree.Delete(tk)
		}
		delete(ix.back, doc)
		delete(ix.lastSeq, doc)
		delete(ix.docVB, doc)
	}
}

// Scan serves one page of a range or equality scan on this partition:
// the first opts.Limit entries of the span after opts.After. The mutex
// is held for the page only, so a caller paging through a span sees
// each page as of its own moment: entries never repeat or go backwards,
// but mutations applied between pages show up in later pages only. A
// partition has no seqno vector to wait on, so a request_plus scan
// handed to one directly is refused rather than served unconsistent.
func (ix *Indexer) Scan(_ context.Context, opts ScanOptions) ([]ScanItem, error) {
	if opts.WaitSeqnos != nil {
		return nil, ErrPartitionWait
	}
	items, _ := ix.scanPage(opts, false)
	return items, nil
}

// scanPage is Scan, optionally also returning each entry's tree key so
// the service can merge partitions' pages in tree order.
func (ix *Indexer) scanPage(opts ScanOptions, wantKeys bool) (items []ScanItem, keys [][]byte) {
	lo, hi := scanBounds(opts)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	visit := func(k []byte, v any) bool {
		items = append(items, v.(ScanItem))
		if wantKeys {
			keys = append(keys, k)
		}
		return opts.Limit == 0 || len(items) < opts.Limit
	}
	if opts.Reverse {
		ix.tree.Descend(lo, hi, visit)
	} else {
		ix.tree.Ascend(lo, hi, visit)
	}
	return items, keys
}

// CountRange counts entries in the range without materializing them.
// Counts serve planner statistics, not request paths, so they count
// what is indexed now (opts.WaitSeqnos is ignored).
func (ix *Indexer) CountRange(opts ScanOptions) int {
	lo, hi := scanBounds(opts)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := 0
	ix.tree.Ascend(lo, hi, func(_ []byte, _ any) bool { n++; return true })
	return n
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
	lo, hi = spanBounds(opts)
	if opts.After == nil {
		return lo, hi
	}
	k := indexTreeKey(opts.After.SecKey, opts.After.DocID)
	if opts.Reverse {
		if hi == nil || bytes.Compare(k, hi) < 0 {
			hi = k
		}
	} else if k = append(k, 0x00); bytes.Compare(k, lo) > 0 {
		lo = k
	}
	return lo, hi
}

func spanBounds(opts ScanOptions) (lo, hi []byte) {
	if opts.HasEqual {
		enc := value.EncodeKey(opts.EqualKey)
		lo = append(append([]byte{}, enc...), 0x00)
		hi = append(append([]byte{}, enc...), 0x01)
		return lo, hi
	}
	if opts.Low != nil {
		p := prefixEncode(opts.Low)
		if opts.LowIncl {
			lo = p
		} else {
			lo = append(p, 0xFF)
		}
	}
	if opts.High != nil {
		p := prefixEncode(opts.High)
		if opts.HighIncl {
			hi = append(p, 0xFF)
		} else {
			hi = p
		}
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

// Stats reports indexer size for diagnostics.
type IndexerStats struct {
	Entries int
	Docs    int
}

// Stats returns current counters.
func (ix *Indexer) Stats() IndexerStats {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return IndexerStats{Entries: ix.tree.Len(), Docs: len(ix.back)}
}

// SnapshotTo writes a recoverable snapshot of a memory-optimized index
// ("recoverability is provided via disk-backups", §6.1.1). vec is the
// recovery vector stored with it: the feed's applied seqnos
// (Feed.Processed) captured before the call, so every seqno in it is
// in the rows and a restored index resumes its feed from there.
func (ix *Indexer) SnapshotTo(w io.Writer, vec map[int]uint64) error {
	ix.mu.Lock()
	var rows []ScanItem
	ix.tree.Ascend(nil, nil, func(_ []byte, v any) bool {
		rows = append(rows, v.(ScanItem))
		return true
	})
	ix.mu.Unlock()

	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(rows)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(vec)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	for vb, s := range vec {
		var rec [12]byte
		binary.LittleEndian.PutUint32(rec[0:], uint32(vb))
		binary.LittleEndian.PutUint64(rec[4:], s)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	for _, r := range rows {
		payload := value.Marshal(map[string]any{"id": r.DocID, "sec": append([]any{}, r.SecKey...)})
		var l [8]byte
		binary.LittleEndian.PutUint32(l[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(l[4:], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(l[:]); err != nil {
			return err
		}
		if _, err := bw.Write(payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// RestoreFrom rebuilds the index from a snapshot and returns the
// recovery vector stored with it.
func (ix *Indexer) RestoreFrom(r io.Reader) (map[int]uint64, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	nRows := binary.LittleEndian.Uint32(hdr[0:])
	nVBs := binary.LittleEndian.Uint32(hdr[4:])
	vec := make(map[int]uint64, nVBs)
	for i := uint32(0); i < nVBs; i++ {
		var rec [12]byte
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, err
		}
		vec[int(binary.LittleEndian.Uint32(rec[0:]))] = binary.LittleEndian.Uint64(rec[4:])
	}
	tree := btree.New(nil)
	back := make(map[string][][]byte)
	for i := uint32(0); i < nRows; i++ {
		var l [8]byte
		if _, err := io.ReadFull(br, l[:]); err != nil {
			return nil, err
		}
		payload := make([]byte, binary.LittleEndian.Uint32(l[0:]))
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(l[4:]) {
			return nil, fmt.Errorf("gsi: snapshot row %d corrupt", i)
		}
		obj, ok := value.Parse(payload)
		if !ok {
			return nil, fmt.Errorf("gsi: snapshot row %d unparsable", i)
		}
		id, _ := value.Field(obj, "id").(string)
		sec, _ := value.Field(obj, "sec").([]any)
		tk := indexTreeKey(sec, id)
		tree.Set(tk, ScanItem{DocID: id, SecKey: sec})
		back[id] = append(back[id], tk)
	}
	ix.mu.Lock()
	ix.tree = tree
	ix.back = back
	ix.mu.Unlock()
	return vec, nil
}

// Close releases resources.
func (ix *Indexer) Close() {
	ix.mu.Lock()
	ix.closed = true
	if ix.logW != nil {
		ix.logW.Flush()
	}
	ix.mu.Unlock()
	if ix.log != nil {
		ix.log.Close()
	}
}
