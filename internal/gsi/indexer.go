package gsi

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

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

// Indexer maintains one partition of one index — "the indexer
// component processes the changes received from the router and manages
// the on-disk index tree data structure".
type Indexer struct {
	def  *compiledDef
	part int

	tree *Tree

	mu sync.Mutex
	// lastSeq guards against out-of-order redelivery: the initial-build
	// backfill stream races the steady-state projector stream, and a
	// document's index contribution must only ever move forward. Keyed
	// by vBucket, then document, so PurgeVB drops one partition's guards.
	lastSeq map[int]map[string]uint64
	closed  bool

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
		tree:    NewTree(nil),
		lastSeq: make(map[int]map[string]uint64),
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

// Apply installs one key version. Calls arrive in per-vBucket seqno
// order from the router.
func (ix *Indexer) Apply(kv KeyVersion) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return
	}
	guards := ix.lastSeq[kv.VB]
	if guards == nil {
		guards = make(map[string]uint64)
		ix.lastSeq[kv.VB] = guards
	}
	if kv.Seqno <= guards[kv.DocID] {
		// Stale or duplicate delivery (backfill racing the live feed).
		return
	}
	mIndexed.Inc()
	guards[kv.DocID] = kv.Seqno
	if ix.tree.Replace(kv.VB, kv.DocID, kv.Entries, nil) && ix.logW != nil {
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

// PurgeVB drops one vBucket's contribution entirely: tree entries and
// seqno guards. The feed layer calls it on rollback, when a promoted
// copy's history is shorter than what this partition already applied;
// clearing lastSeq is what lets the re-streamed (lower-seqno) versions
// apply again.
func (ix *Indexer) PurgeVB(vb int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return
	}
	ix.tree.PurgeVB(vb)
	delete(ix.lastSeq, vb)
}

// Scan serves one page of a range or equality scan on this partition
// (Tree.Scan). A partition has no seqno vector to wait on, so a
// request_plus scan handed to one directly is refused rather than
// served unconsistent.
func (ix *Indexer) Scan(_ context.Context, opts ScanOptions) ([]ScanItem, error) {
	if opts.WaitSeqnos != nil {
		return nil, ErrPartitionWait
	}
	return ix.tree.Scan(opts), nil
}

// Stats reports the partition's tree counters.
func (ix *Indexer) Stats() TreeStats { return ix.tree.Stats() }

// SnapshotTo writes a recoverable snapshot of a memory-optimized index
// ("recoverability is provided via disk-backups", §6.1.1). vec is the
// recovery vector stored with it: the feed's applied seqnos
// (Feed.Processed) captured before the call, so every seqno in it is
// in the rows and a restored index resumes its feed from there.
func (ix *Indexer) SnapshotTo(w io.Writer, vec map[int]uint64) error {
	var rows []map[string]any
	ix.tree.EachDoc(func(vb int, docID string, secs [][]any) {
		arr := make([]any, len(secs))
		for i, sec := range secs {
			arr[i] = sec
		}
		rows = append(rows, map[string]any{"vb": float64(vb), "id": docID, "secs": arr})
	})

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
		payload := value.Marshal(r)
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

// RestoreFrom loads a snapshot's documents (one row each: vBucket, ID,
// keys) into a new partition and returns the recovery vector stored
// with it. Nothing is loaded unless every row reads back intact.
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
	rows := make([]any, 0, nRows)
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
		rows = append(rows, obj)
	}
	for _, obj := range rows {
		vb, _ := value.AsNumber(value.Field(obj, "vb"))
		id, _ := value.Field(obj, "id").(string)
		arr, _ := value.Field(obj, "secs").([]any)
		secs := make([][]any, len(arr))
		for i := range arr {
			secs[i], _ = arr[i].([]any)
		}
		ix.tree.Replace(int(vb), id, secs, nil)
	}
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
