// Package storage implements the append-only storage engine of the data
// service (paper §4.3.3): "With Couchbase's append-only storage engine
// design, document mutations always go to the end of a file. ... This
// improves disk write performance, as all updates are written
// sequentially. Compaction is periodically run, based on a
// fragmentation threshold, and while the system is online, to clean up
// stale data from the append-only storage."
//
// Each vBucket persists to its own file (as couchstore does). A file is
// a sequence of CRC-protected records; the newest record for a key
// wins. Recovery scans the file, stops at the first torn or corrupt
// record, and truncates the tail — the contract the asynchronous write
// path relies on: a crash loses only unflushed (still-in-memory)
// mutations, never corrupts flushed ones.
//
// A file also holds a standard-mode GSI partition's maintenance log: a
// record per document, its vBucket in Flags, committed with Sync.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"couchgo/internal/events"
	"couchgo/internal/metrics"
)

// Storage-engine metrics, process-wide across every vBucket file.
// Fsync timing is the durability ladder's expensive rung (§2.3.2:
// replication ≪ persistence); compactions and reclaimed bytes track
// the append-only files' garbage collection.
var (
	mBytesWritten   = metrics.Default.Counter("couchgo_storage_bytes_written_total")
	mFsyncDuration  = metrics.Default.Histogram("couchgo_storage_fsync_duration_seconds")
	mCompactions    = metrics.Default.Counter("couchgo_storage_compactions_total")
	mBytesReclaimed = metrics.Default.Counter("couchgo_storage_compaction_reclaimed_bytes_total")

	// Group-commit accounting (DESIGN.md §10). A "batch" is one
	// leader fsync; a "rider" is an Append whose durability was
	// satisfied by some other caller's fsync. coalesced_appends is how
	// many append batches one fsync made durable; device_sync_files is
	// how many distinct vBucket files one device-level sync round
	// coalesced.
	mGroupCommitBatches   = metrics.Default.Counter("couchgo_storage_group_commit_batches")
	mGroupCommitRiders    = metrics.Default.Counter("couchgo_storage_group_commit_riders_total")
	mGroupCommitCoalesced = metrics.Default.ValueHistogram("couchgo_storage_group_commit_coalesced_appends")
	mDeviceSyncFiles      = metrics.Default.ValueHistogram("couchgo_storage_device_sync_files")
	// mWaitedSyncs counts leader fsyncs of waited batches, which skip
	// the device round because a persistence waiter needs them.
	mWaitedSyncs = metrics.Default.Counter("couchgo_storage_waited_syncs_total")

	// Secondary-path errors that cannot be propagated without masking
	// the primary failure (closing a file while unwinding, removing a
	// leftover compaction temp file). They must still be visible: a
	// leaking descriptor or an undeletable temp file is an operational
	// problem long before it is a correctness one.
	mCloseErrors  = metrics.Default.Counter("couchgo_storage_side_errors_total", "op", "close")
	mRemoveErrors = metrics.Default.Counter("couchgo_storage_side_errors_total", "op", "remove")
	mUnmapErrors  = metrics.Default.Counter("couchgo_storage_side_errors_total", "op", "unmap")

	// Record reads that went through ReadAt because the file has no
	// mapping (DESIGN.md §3 "The mapping"): 0 wherever mmap works.
	mReadsUnmapped = metrics.Default.Counter("couchgo_storage_reads_unmapped_total")
)

// closeCounted closes f, counting (rather than silently dropping) an
// error, for paths where a close failure must not mask the primary
// error being returned.
func closeCounted(f *os.File) {
	if err := f.Close(); err != nil {
		mCloseErrors.Inc()
	}
}

// Errors returned by the storage engine.
var (
	ErrNotFound = errors.New("storage: key not found")
	ErrClosed   = errors.New("storage: file closed")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta is the document metadata persisted alongside each value. It
// mirrors cache.Item's durable fields.
type Meta struct {
	Key      string
	Seqno    uint64
	CAS      uint64
	RevSeqno uint64
	Flags    uint32
	Expiry   int64
	Deleted  bool
}

// Record is one persisted mutation.
type Record struct {
	Meta
	Value []byte
}

const recordMagic = 0xC7

// maxEncBufBytes caps the encode buffer a file keeps between batches
// (transport's maxPooledBufBytes rule): a bigger batch is written in
// pieces of it.
const maxEncBufBytes = 64 << 10

// record layout:
//
//	magic(1) flags(1) keyLen(2) valLen(4) seqno(8) cas(8) revSeqno(8)
//	docFlags(4) expiry(8) key valLen crc32c(4)
const headerSize = 1 + 1 + 2 + 4 + 8 + 8 + 8 + 4 + 8

func encodedSize(r *Record) int64 {
	return int64(headerSize + len(r.Key) + len(r.Value) + 4)
}

func encodeRecord(buf []byte, r *Record) []byte {
	start := len(buf)
	var flags byte
	if r.Deleted {
		flags |= 1
	}
	var hdr [headerSize]byte
	hdr[0] = recordMagic
	hdr[1] = flags
	binary.LittleEndian.PutUint16(hdr[2:], uint16(len(r.Key)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(r.Value)))
	binary.LittleEndian.PutUint64(hdr[8:], r.Seqno)
	binary.LittleEndian.PutUint64(hdr[16:], r.CAS)
	binary.LittleEndian.PutUint64(hdr[24:], r.RevSeqno)
	binary.LittleEndian.PutUint32(hdr[32:], r.Flags)
	binary.LittleEndian.PutUint64(hdr[36:], uint64(r.Expiry))
	buf = append(buf, hdr[:]...)
	buf = append(buf, r.Key...)
	buf = append(buf, r.Value...)
	crc := crc32.Checksum(buf[start:], castagnoli)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(buf, tail[:]...)
}

// checkRecord reports whether data starts with a complete record whose
// CRC holds (ok=false on a torn tail), and its key and total lengths.
func checkRecord(data []byte) (keyLen, total int, ok bool) {
	if len(data) < headerSize || data[0] != recordMagic {
		return 0, 0, false
	}
	keyLen = int(binary.LittleEndian.Uint16(data[2:]))
	total = headerSize + keyLen + int(binary.LittleEndian.Uint32(data[4:])) + 4
	if len(data) < total {
		return 0, 0, false
	}
	crcWant := binary.LittleEndian.Uint32(data[total-4:])
	if crc32.Checksum(data[:total-4], castagnoli) != crcWant {
		return 0, 0, false
	}
	return keyLen, total, true
}

// decodeRecord parses one record from data into memory of its own. It
// returns the record, the total bytes consumed, and ok=false when the
// bytes do not form a complete valid record (torn tail).
func decodeRecord(data []byte) (Record, int, bool) {
	keyLen, total, ok := checkRecord(data)
	if !ok {
		return Record{}, 0, false
	}
	r := Record{Meta: decodeMeta(data, string(data[headerSize:headerSize+keyLen]))}
	if val := data[headerSize+keyLen : total-4]; len(val) > 0 {
		r.Value = append([]byte(nil), val...)
	}
	return r, total, true
}

// decodeMeta reads the metadata of key's record from its header.
func decodeMeta(hdr []byte, key string) Meta {
	return Meta{
		Key:      key,
		Seqno:    binary.LittleEndian.Uint64(hdr[8:]),
		CAS:      binary.LittleEndian.Uint64(hdr[16:]),
		RevSeqno: binary.LittleEndian.Uint64(hdr[24:]),
		Flags:    binary.LittleEndian.Uint32(hdr[32:]),
		Expiry:   int64(binary.LittleEndian.Uint64(hdr[36:])),
		Deleted:  hdr[1]&1 != 0,
	}
}

// recInfo is the index entry for the newest record of a key: the rest
// of its metadata is in the record's header. A size fits 32 bits, as a
// value's length does in the header.
type recInfo struct {
	seqno  uint64
	offset int64 // record start in file
	size   uint32
}

// Loc is where a record is: its offset and size in one generation of
// its file. The zero Loc is in none. Only the file reads it.
type Loc struct {
	off  int64
	size uint32
	gen  uint32
}

// VBFile is the storage for one vBucket: an append-only file plus an
// in-memory by-ID index rebuilt at open.
//
// Durability uses group commit (DESIGN.md §10): Append writes and
// indexes the batch under mu, then — when syncOnWrite is set — rides
// the leader/rider fsync protocol below instead of fsyncing inline.
// Lock order is strictly mu → syncMu is never taken; the two are
// disjoint: mu guards file contents and the index, syncMu guards only
// the fsync watermark. The fsync itself runs with neither lock held,
// so readers and the next writer proceed while the disk churns.
type VBFile struct {
	mu   sync.Mutex
	f    *os.File
	path string
	sync bool

	// encBuf is Append's encode buffer, reused batch after batch, and
	// the buffer an unmapped read fills. mu guards it: Append holds mu
	// from the encode through the write, a read until it has copied out.
	encBuf []byte

	// mapped is a read-only shared mapping of f from offset 0, made by
	// the first read and again when a record ends beyond it; it reaches
	// past the end of the file, and only bytes below fileBytes are read.
	// mu guards it. noMap is set once mapping f has failed.
	mapped []byte
	noMap  bool

	byID map[string]recInfo
	// gen numbers the file's generations: each compaction swap begins a
	// new one, in which no offset of an older one means anything. mu
	// guards it.
	gen       uint32
	fileBytes int64
	liveBytes int64 // bytes of current-version records
	highSeqno uint64
	closed    bool

	// Group-commit state. appendSeq (under mu) numbers append batches
	// monotonically — unlike file offsets it survives compaction
	// rewrites, which shrink the file. syncedSeq is the highest batch
	// known durable; a writer whose batch ≤ syncedSeq is covered.
	// syncing marks an in-flight leader (or a Compact/Close quiesce
	// barrier). syncErr is sticky: after a failed fsync the durable
	// prefix is unknowable, so every later durable append fails too.
	appendSeq int64
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncing   bool
	syncedSeq int64
	syncErr   error

	// syncer, when non-nil, coalesces this file's unwaited leader fsyncs
	// with other files on the same device (set by Store.VB).
	syncer *Syncer
}

// Open opens (creating if absent) the vBucket file at path. syncOnWrite
// requests fsync after each batch append (durable persistence); with it
// off, durability is at the mercy of the OS page cache — the tradeoff
// the paper's asynchronous design deliberately exposes.
func Open(path string, syncOnWrite bool) (*VBFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	v := &VBFile{f: f, path: path, sync: syncOnWrite, byID: make(map[string]recInfo), gen: 1}
	v.syncCond = sync.NewCond(&v.syncMu)
	if err := v.recover(); err != nil {
		closeCounted(f)
		return nil, err
	}
	return v, nil
}

// recover scans the file, building the index and truncating any torn
// tail left by a crash. It takes the lock for the analyzer's benefit:
// the file has not escaped Open yet, so there is no contention.
func (v *VBFile) recover() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	data, err := io.ReadAll(v.f)
	if err != nil {
		return err
	}
	off := int64(0)
	for off < int64(len(data)) {
		rec, n, ok := decodeRecord(data[off:])
		if !ok {
			// Torn or corrupt tail: truncate. Everything before is valid.
			if err := v.f.Truncate(off); err != nil {
				return err
			}
			break
		}
		v.indexRecordLocked(rec.Key, rec.Seqno, off, int64(n))
		off += int64(n)
	}
	v.fileBytes = off
	_, err = v.f.Seek(off, io.SeekStart)
	return err
}

func (v *VBFile) indexRecordLocked(key string, seqno uint64, off, size int64) {
	if old, ok := v.byID[key]; ok {
		v.liveBytes -= int64(old.size)
	}
	v.byID[key] = recInfo{seqno: seqno, offset: off, size: uint32(size)}
	v.liveBytes += size
	if seqno > v.highSeqno {
		v.highSeqno = seqno
	}
}

// Append writes a batch of records sequentially at the end of the file.
// The batch is a single write syscall (the disk-write queue aggregates
// mutations, §2.3.2). When syncOnWrite is set, Append does not return
// until its bytes are covered by an fsync — its own or a concurrent
// leader's (group commit) — so the caller's durability watermark may
// advance the moment Append returns.
//
// waited (false when omitted) says someone waits on this batch's
// persistence: if it leads its file's fsync, it fsyncs at once rather
// than queueing for the device round of the Syncer.
func (v *VBFile) Append(recs []Record, waited ...bool) error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	if len(recs) == 0 {
		v.mu.Unlock()
		return nil
	}
	// A batch bigger than the kept buffer is written a buffer at a time,
	// so a burst's batch allocates none of its size.
	var need int64
	for i := range recs {
		need += encodedSize(&recs[i])
	}
	buf := v.encBuf[:0]
	if need = min(need, maxEncBufBytes); int64(cap(buf)) < need {
		buf = make([]byte, 0, need)
	}
	for i := range recs {
		buf = encodeRecord(buf, &recs[i])
		if i == len(recs)-1 || int64(len(buf))+encodedSize(&recs[i+1]) > maxEncBufBytes {
			if _, err := v.f.Write(buf); err != nil {
				v.mu.Unlock()
				return err
			}
			mBytesWritten.Add(uint64(len(buf)))
			buf = buf[:0]
		}
	}
	if cap(buf) <= maxEncBufBytes {
		v.encBuf = buf
	}
	for i := range recs {
		size := encodedSize(&recs[i])
		v.indexRecordLocked(recs[i].Key, recs[i].Seqno, v.fileBytes, size)
		v.fileBytes += size
	}
	v.appendSeq++
	seq := v.appendSeq
	v.mu.Unlock()
	if v.sync {
		return v.syncTo(seq, len(waited) > 0 && waited[0])
	}
	return nil
}

// Sync makes every batch appended before it durable, leading or riding
// the group commit as an unwaited durable Append does: the commit of a
// file opened without syncOnWrite (a GSI partition's log).
func (v *VBFile) Sync() error {
	v.mu.Lock()
	seq := v.appendSeq
	v.mu.Unlock()
	return v.syncTo(seq, false)
}

// syncTo blocks until the durable watermark covers append batch seq,
// joining or leading a group commit. At most one fsync per file is in
// flight; every caller that arrives while it runs waits, and when it
// completes, all callers whose batch it covered return together
// (riders). A caller it did not cover becomes the next leader, which
// joins the Syncer's device round unless its batch is waited.
func (v *VBFile) syncTo(seq int64, waited bool) error {
	v.syncMu.Lock()
	rode := false
	for {
		// Coverage first: batches already durable stay durable even if
		// a later fsync failed or the file has since been closed.
		if v.syncedSeq >= seq {
			v.syncMu.Unlock()
			if rode {
				mGroupCommitRiders.Inc()
			}
			return nil
		}
		if v.syncErr != nil {
			err := v.syncErr
			v.syncMu.Unlock()
			return err
		}
		if !v.syncing {
			break
		}
		rode = true
		v.syncCond.Wait()
	}
	// Lead: fsync with no locks held. Claim only batches written
	// before the fsync started — a write racing the fsync may or may
	// not be on disk when it returns, so target is read first.
	v.syncing = true
	prevSynced := v.syncedSeq
	v.syncMu.Unlock()

	v.mu.Lock()
	target := v.appendSeq // every batch ≤ target hit the file under mu
	f := v.f
	closed := v.closed
	v.mu.Unlock()

	var err error
	switch {
	case closed:
		err = ErrClosed
	case v.syncer != nil && !waited:
		err = v.syncer.Sync(f)
	default:
		t0 := time.Now()
		err = f.Sync()
		mFsyncDuration.ObserveSince(t0)
		if waited {
			mWaitedSyncs.Inc()
		}
	}

	v.syncMu.Lock()
	v.syncing = false
	if err != nil {
		v.syncErr = err
	} else {
		if target > v.syncedSeq {
			v.syncedSeq = target
		}
		mGroupCommitBatches.Inc()
		if target > prevSynced {
			mGroupCommitCoalesced.ObserveValue(uint64(target - prevSynced))
		}
	}
	v.syncCond.Broadcast()
	v.syncMu.Unlock()
	return err
}

// quiesceSync blocks new fsync leaders and waits out an in-flight one.
// Compact and Close use it before swapping or closing the descriptor a
// leader might be fsyncing with no lock held. Callers must not hold mu
// when calling: an in-flight leader briefly takes mu on its way to the
// fsync, so waiting for it while holding mu would deadlock.
func (v *VBFile) quiesceSync() {
	v.syncMu.Lock()
	for v.syncing {
		v.syncCond.Wait()
	}
	v.syncing = true
	v.syncMu.Unlock()
}

// Get reads the newest version of key. Deleted keys report ErrNotFound
// (tombstone metadata is still reachable via GetNewest).
func (v *VBFile) Get(key string) (Record, error) {
	rec, err := v.GetNewest(key)
	if err == nil && rec.Deleted {
		return Record{}, ErrNotFound
	}
	return rec, err
}

// GetNewest reads the newest record of key. A tombstone comes back as
// its metadata with Deleted set.
func (v *VBFile) GetNewest(key string) (Record, error) {
	rec, _, err := v.GetAt(key, Loc{})
	return rec, err
}

// GetAt is the one read: it reads key's record at at when at is in the
// file's current generation, and otherwise the newest record the index
// has, and returns the record and where it is. Metadata and value come
// from one record under one hold of the lock, so they belong to one
// revision. A tombstone comes back as its metadata with Deleted set.
func (v *VBFile) GetAt(key string, at Loc) (Record, Loc, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return Record{}, Loc{}, ErrClosed
	}
	var info recInfo
	if at.gen == v.gen {
		info = recInfo{offset: at.off, size: at.size}
	} else {
		var ok bool
		if info, ok = v.byID[key]; !ok {
			return Record{}, Loc{}, ErrNotFound
		}
		at = Loc{off: info.offset, size: info.size, gen: v.gen}
	}
	rec, err := v.readAtLocked(key, info)
	return rec, at, err
}

// readAtLocked reads key's record at info, its metadata from the header
// and its value as a copy, because the bytes it is checked on are the
// file's (the mapping does not outlive a compaction, encBuf the next
// Append). An info that names no seqno (a location) takes the header's.
func (v *VBFile) readAtLocked(key string, info recInfo) (Record, error) {
	var rec Record
	err := v.readRawLocked(key, info, func(raw []byte) error {
		rec.Meta = decodeMeta(raw, key)
		if val := raw[headerSize+len(key) : len(raw)-4]; len(val) > 0 {
			rec.Value = append([]byte(nil), val...)
		}
		return nil
	})
	return rec, err
}

// mapLocked reports whether the mapping covers the file up to end,
// mapping it again when it does not: twice the file's size rounded up to
// a power of two (at least 1 MiB), so that a growing file is remapped a
// logarithmic number of times.
func (v *VBFile) mapLocked(end int64) bool {
	if int64(len(v.mapped)) >= end {
		return true
	}
	if v.noMap {
		return false
	}
	v.unmapLocked()
	window := int64(1 << 20)
	for window < 2*v.fileBytes {
		window <<= 1
	}
	m, err := mapFile(v.f, window)
	v.mapped, v.noMap = m, err != nil
	return err == nil
}

func (v *VBFile) unmapLocked() {
	if v.mapped != nil && unmapFile(v.mapped) != nil {
		mUnmapErrors.Inc()
	}
	v.mapped = nil
}

// readRawLocked is the one read primitive: it hands use key's encoded
// record at info, checked whole (CRC, key, and the seqno when info has
// one), as a view of the mapping or, when the file has none, of encBuf
// filled by ReadAt. The bytes are use's until it returns. A fault on the
// mapping (the file cut short behind our back, an I/O error under a
// page) comes back as the error a bad CRC gives.
func (v *VBFile) readRawLocked(key string, info recInfo, use func(raw []byte) error) (err error) {
	var raw []byte
	if end := info.offset + int64(info.size); v.mapLocked(end) {
		raw = v.mapped[info.offset:end:end]
		defer func(old bool) {
			debug.SetPanicOnFault(old)
			if r := recover(); r != nil {
				if _, fault := r.(interface{ Addr() uintptr }); !fault {
					panic(r)
				}
				err = corruptError(key, info)
			}
		}(debug.SetPanicOnFault(true))
	} else {
		mReadsUnmapped.Inc()
		raw = v.encBuf[:0]
		if cap(raw) < int(info.size) {
			raw = make([]byte, info.size)
		}
		raw = raw[:info.size]
		if cap(raw) <= maxEncBufBytes {
			v.encBuf = raw
		}
		if _, err := v.f.ReadAt(raw, info.offset); err != nil {
			return fmt.Errorf("storage: read %s@%d: %w", key, info.offset, err)
		}
	}
	keyLen, total, ok := checkRecord(raw)
	if !ok || total != len(raw) || keyLen != len(key) || string(raw[headerSize:headerSize+keyLen]) != key ||
		info.seqno != 0 && binary.LittleEndian.Uint64(raw[8:]) != info.seqno {
		return corruptError(key, info)
	}
	return use(raw)
}

func corruptError(key string, info recInfo) error {
	return fmt.Errorf("storage: corrupt record for %s at offset %d", key, info.offset)
}

// HighSeqno returns the highest persisted sequence number. The
// durability watermark PersistTo waits on.
func (v *VBFile) HighSeqno() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.highSeqno
}

// ScanBySeqno iterates the newest version of every key (including
// tombstones) with seqno in (fromExclusive, toInclusive], in seqno
// order. DCP backfill for late-joining streams runs on this.
func (v *VBFile) ScanBySeqno(fromExclusive, toInclusive uint64, fn func(Record) bool) error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	infos := v.infosLocked(func(info recInfo) bool { return info.seqno > fromExclusive && info.seqno <= toInclusive })
	v.mu.Unlock()
	for _, ki := range infos {
		v.mu.Lock()
		if v.closed {
			v.mu.Unlock()
			return ErrClosed
		}
		// Re-check: the key may have been superseded since the snapshot;
		// the newer version will carry a higher seqno and is either in
		// range (visited later is wrong — skip stale) or beyond range.
		cur, ok := v.byID[ki.key]
		if !ok || cur.seqno != ki.seqno {
			v.mu.Unlock()
			continue
		}
		rec, err := v.readAtLocked(ki.key, cur)
		v.mu.Unlock()
		if err != nil {
			return err
		}
		if !fn(rec) {
			return nil
		}
	}
	return nil
}

// keyedInfo is an index entry with its key.
type keyedInfo struct {
	key string
	recInfo
}

// infosLocked lists the index entries keep accepts, in seqno order.
func (v *VBFile) infosLocked(keep func(recInfo) bool) []keyedInfo {
	infos := make([]keyedInfo, 0, len(v.byID))
	for key, info := range v.byID {
		if keep(info) {
			infos = append(infos, keyedInfo{key, info})
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].seqno < infos[j].seqno })
	return infos
}

// Stats describes file health for compaction decisions.
type Stats struct {
	FileBytes int64
	LiveBytes int64
	Items     int
	HighSeqno uint64
}

// Stats returns a snapshot of file statistics.
func (v *VBFile) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return Stats{FileBytes: v.fileBytes, LiveBytes: v.liveBytes, Items: len(v.byID), HighSeqno: v.highSeqno}
}

// Fragmentation returns the fraction of the file occupied by stale
// record versions, the paper's compaction trigger metric.
func (s Stats) Fragmentation() float64 {
	if s.FileBytes == 0 {
		return 0
	}
	return float64(s.FileBytes-s.LiveBytes) / float64(s.FileBytes)
}

// WorthCompacting is the one compaction rule (§4.3.3's fragmentation
// threshold): a file over 64 KiB, more than half stale versions.
func (s Stats) WorthCompacting() bool {
	return s.FileBytes > 64<<10 && s.Fragmentation() > 0.5
}

// Compact rewrites the file keeping only the newest version of each key
// (tombstones included, so replicas and indexes can still learn of
// deletions), then atomically swaps it in. The vBucket stays readable
// and writable from the caller's perspective; only this file's own
// operations serialize with the copy. The quiesce barrier keeps a
// group-commit leader from fsyncing the descriptor being swapped out.
func (v *VBFile) Compact() error {
	v.quiesceSync()
	seqAtSwap, err := v.compactSwap()
	v.syncMu.Lock()
	v.syncing = false
	if err == nil && seqAtSwap > v.syncedSeq {
		// Every append batch up to the swap is in the rewritten file,
		// which was fully synced before the rename. Claim exactly
		// those: an append racing in after compactSwap released mu has
		// a higher batch seq and still owes an fsync.
		v.syncedSeq = seqAtSwap
	}
	v.syncCond.Broadcast()
	v.syncMu.Unlock()
	return err
}

// compactSwap does the rewrite and swap under mu, returning the append
// watermark the new file covers.
func (v *VBFile) compactSwap() (int64, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return 0, ErrClosed
	}
	startEv := events.New(events.Compaction, events.SevInfo, "compaction started")
	startEv.Fields = map[string]string{
		"path":       v.path,
		"file_bytes": strconv.FormatInt(v.fileBytes, 10),
		"live_bytes": strconv.FormatInt(v.liveBytes, 10),
	}
	events.Default.Publish(startEv)
	tmpPath := v.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	// After a successful rename the temp path no longer exists; on any
	// failure path this cleans up the partial file. Either way a
	// removal error (other than "already gone") is counted, not lost.
	defer func() {
		if err := os.Remove(tmpPath); err != nil && !os.IsNotExist(err) {
			mRemoveErrors.Inc()
		}
	}()

	infos := v.infosLocked(func(recInfo) bool { return true })

	// Records are self-contained, so a live one is copied as the bytes
	// it is, CRC checked, through one buffered writer (256 KiB a write).
	newIndex := make(map[string]recInfo, len(infos))
	w := bufio.NewWriterSize(tmp, 256<<10)
	copyRaw := func(raw []byte) error {
		_, err := w.Write(raw)
		return err
	}
	var off int64
	for _, ki := range infos {
		if err := v.readRawLocked(ki.key, ki.recInfo, copyRaw); err != nil {
			closeCounted(tmp)
			return 0, err
		}
		newIndex[ki.key] = recInfo{seqno: ki.seqno, offset: off, size: ki.size}
		off += int64(ki.size)
	}
	if err := w.Flush(); err != nil {
		closeCounted(tmp)
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		closeCounted(tmp)
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmpPath, v.path); err != nil {
		return 0, err
	}
	nf, err := os.OpenFile(v.path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := nf.Seek(off, io.SeekStart); err != nil {
		closeCounted(nf)
		return 0, err
	}
	// The swap already succeeded; a close failure on the replaced
	// handle cannot be propagated meaningfully, only counted.
	closeCounted(v.f)
	v.f = nf
	v.unmapLocked() // it shows the file that was replaced
	mCompactions.Inc()
	reclaimed := v.fileBytes - off
	if reclaimed > 0 {
		mBytesReclaimed.Add(uint64(reclaimed))
	}
	doneEv := events.New(events.Compaction, events.SevInfo, "compaction done")
	doneEv.Fields = map[string]string{
		"path":            v.path,
		"file_bytes":      strconv.FormatInt(off, 10),
		"reclaimed_bytes": strconv.FormatInt(reclaimed, 10),
	}
	events.Default.Publish(doneEv)
	v.byID = newIndex
	v.gen++
	v.fileBytes = off
	v.liveBytes = off
	return v.appendSeq, nil
}

// Close releases the file handle. The quiesce barrier waits out an
// in-flight group-commit fsync before the descriptor goes away.
func (v *VBFile) Close() error {
	v.quiesceSync()
	v.mu.Lock()
	var err error
	if !v.closed {
		v.closed = true
		v.unmapLocked()
		err = v.f.Close()
	}
	v.mu.Unlock()
	v.syncMu.Lock()
	v.syncing = false
	if v.syncErr == nil {
		// Wake pending riders: their batches will never be fsynced.
		v.syncErr = ErrClosed
	}
	v.syncCond.Broadcast()
	v.syncMu.Unlock()
	return err
}

// Remove closes and deletes the file (vBucket dropped from this node).
// A close failure does not stop the removal; both errors are reported.
func (v *VBFile) Remove() error {
	return errors.Join(v.Close(), os.Remove(v.path))
}

// Syncer coalesces fsync requests from many vBucket files that share
// one device. It runs the same leader/rider protocol as VBFile group
// commit, one level up: the first caller in a round becomes the
// device leader, fsyncs every distinct file that queued a ticket
// while the previous round ran, and completes all their tickets
// together. No background goroutine — leadership is carried by
// whichever caller arrives at the right moment. A waited append's
// leader does not queue here (Append).
type Syncer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	syncing bool
	pending []*syncTicket
}

type syncTicket struct {
	f    *os.File
	err  error
	done bool
}

// NewSyncer creates a device-level fsync coalescer.
func NewSyncer() *Syncer {
	s := &Syncer{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Sync makes f durable, batching the fsync with any other files whose
// requests arrive while a round is in flight.
func (s *Syncer) Sync(f *os.File) error {
	t := &syncTicket{f: f}
	s.mu.Lock()
	s.pending = append(s.pending, t)
	for {
		if t.done {
			err := t.err
			s.mu.Unlock()
			return err
		}
		if !s.syncing {
			// Lead this round: take the whole queue (our ticket
			// included) and fsync each distinct file once, locks
			// released so the next round can queue behind us.
			s.syncing = true
			batch := s.pending
			s.pending = nil
			s.mu.Unlock()

			errs := make(map[*os.File]error, 1)
			seen := make(map[*os.File]bool, 1)
			for _, tk := range batch {
				if seen[tk.f] {
					continue
				}
				seen[tk.f] = true
				t0 := time.Now()
				errs[tk.f] = tk.f.Sync()
				mFsyncDuration.ObserveSince(t0)
			}
			mDeviceSyncFiles.ObserveValue(uint64(len(seen)))

			s.mu.Lock()
			for _, tk := range batch {
				tk.err = errs[tk.f]
				tk.done = true
			}
			s.syncing = false
			s.cond.Broadcast()
			continue // own ticket is now done; loop exits above
		}
		s.cond.Wait()
	}
}

// Store manages the per-vBucket files of one bucket on one node.
type Store struct {
	mu     sync.Mutex
	dir    string
	sync   bool
	syncer *Syncer
	files  map[int]*VBFile
}

// NewStore creates a store rooted at dir (created if needed). With
// syncOnWrite set, all the store's files share one device-level
// Syncer, so fsyncs for different vBuckets coalesce too.
func NewStore(dir string, syncOnWrite bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{dir: dir, sync: syncOnWrite, files: make(map[int]*VBFile)}
	if syncOnWrite {
		st.syncer = NewSyncer()
	}
	return st, nil
}

// VB returns (opening lazily) the file for vBucket vb.
func (s *Store) VB(vb int) (*VBFile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.files[vb]; ok {
		return f, nil
	}
	f, err := Open(filepath.Join(s.dir, fmt.Sprintf("vb_%04d.couch", vb)), s.sync)
	if err != nil {
		return nil, err
	}
	f.syncer = s.syncer
	s.files[vb] = f
	return f, nil
}

// DropVB deletes vb's file (after a rebalance moves the partition away).
func (s *Store) DropVB(vb int) error {
	s.mu.Lock()
	f, ok := s.files[vb]
	delete(s.files, vb)
	s.mu.Unlock()
	if !ok {
		p := filepath.Join(s.dir, fmt.Sprintf("vb_%04d.couch", vb))
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
		return nil
	}
	return f.Remove()
}

// Close closes every open file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.files = make(map[int]*VBFile)
	return first
}
