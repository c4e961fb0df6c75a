// Package cache implements the object-managed cache at the heart of the
// data service (paper §4.3.3): one hash table per vBucket holding each
// document's key, metadata, and (when resident) its value.
//
// The cache is the memory-first write path's source of truth. Every
// mutation is applied here first and acknowledged to the client before
// anything is persisted or replicated (Figure 6). Keys and metadata stay
// resident by default; values can be evicted under memory pressure and
// re-fetched from the storage engine on demand ("value eviction").
//
// Concurrency control follows the paper: CAS (compare-and-swap)
// optimistic locking for the common case, plus a stricter GetAndLock /
// Unlock hard lock with a timeout "to avoid deadlocks" (§3.1.1).
//
// The table is hash-striped (DESIGN.md §10): keys spread over
// numStripes independently locked sub-tables, so readers and writers
// of different keys never contend, and a resident-hit Get touches one
// stripe lock and nothing else. Mutations additionally serialize
// through a short sequencing section (seqMu) that assigns the seqno
// and emits the mutation to the observer — the pair is atomic, which
// is what guarantees observers see mutations in seqno order.
package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/metrics"
	"couchgo/internal/storage"
)

// Process-wide cache counters (summed across every hash table). Hit
// and miss counting lives in the vBucket layer, which distinguishes
// resident hits from background fetches; the table itself counts what
// only it can see: lazy expirations and pager evictions.
var (
	mExpirations   = metrics.Default.Counter("couchgo_cache_expirations_total")
	mEvictionsVal  = metrics.Default.Counter("couchgo_cache_evictions_total", "mode", "value")
	mEvictionsFull = metrics.Default.Counter("couchgo_cache_evictions_total", "mode", "full")
	// Items the pager looked at, to be read beside the evictions: an
	// eviction costs three visits (aged twice, then evicted) at best.
	mPagerVisited = metrics.Default.Counter("couchgo_cache_pager_visited_total")
)

// Errors returned by hash-table operations. They mirror the memcached
// binary-protocol status codes the real data service speaks.
var (
	ErrKeyNotFound  = errors.New("cache: key not found")
	ErrKeyExists    = errors.New("cache: key already exists")
	ErrCASMismatch  = errors.New("cache: CAS mismatch")
	ErrLocked       = errors.New("cache: document is locked")
	ErrNotLocked    = errors.New("cache: document is not locked")
	ErrValueEvicted = errors.New("cache: value not resident")
	// ErrSealed refuses a mutation of a sealed table (Seal).
	ErrSealed = errors.New("cache: table sealed")
)

// casCounter generates cluster-unique, monotonically increasing CAS
// values. The real system derives CAS from a hybrid logical clock; a
// process-wide atomic counter preserves the properties the rest of the
// system relies on (uniqueness and monotonicity per document).
var casCounter atomic.Uint64

// NextCAS returns a fresh CAS value.
func NextCAS() uint64 { return casCounter.Add(1) }

// BumpCAS advances the CAS clock past an externally observed value
// (warmup from disk, replica apply, XDCR), preserving monotonicity
// across restarts and clusters.
func BumpCAS(seen uint64) {
	for {
		cur := casCounter.Load()
		if cur >= seen || casCounter.CompareAndSwap(cur, seen) {
			return
		}
	}
}

// Item is one document's entry in the hash table: identity, metadata,
// and the (possibly evicted) value. The table keeps one Item per key,
// at one address for as long as the key is in it: a mutation overwrites
// it where it stands (installStriped), a full eviction marks it gone,
// and what leaves the table is a copy made under the stripe lock
// (snapshot), which no later revision can reach.
type Item struct {
	Key   string
	Value []byte // nil when !Resident or Deleted

	// CAS changes on every mutation; clients echo it for optimistic
	// concurrency control.
	CAS uint64
	// RevSeqno counts mutations to this document over its lifetime. XDCR
	// conflict resolution prefers the copy with more updates (§4.6.1).
	RevSeqno uint64
	// Seqno is the per-vBucket mutation sequence number assigned at
	// cache-insert time; DCP, durability, and index consistency all
	// reason in seqnos (§4.2).
	Seqno uint64

	Flags uint32
	// slot is the item's index + 1 in its stripe's resident slice while
	// it is in it. Only residency writes it. It sits in the padding
	// after Flags, among the fields a Set reads of the item it replaces.
	slot        int32
	Expiry      int64 // unix seconds; 0 = no expiry
	lockedUntil int64 // unix seconds; 0 = unlocked
	// loc is where this revision's record was read from disk: zero until
	// its first fetch, and again with every new revision.
	loc storage.Loc
	// Deleted marks a tombstone: metadata retained so replicas and
	// indexes can observe the deletion; value gone.
	Deleted bool
	// Resident is false when the value has been evicted from memory.
	Resident bool
	nru      uint8 // not-recently-used clock for the item pager
	// gone marks an entry a full eviction took out of the table: a
	// Fetched that holds it looks the key up again.
	gone bool
}

// clock is now, or for 0 the wall clock: read only for an item with a
// TTL or a lock, or by an op that takes a lock.
func clock(now int64) int64 {
	if now == 0 {
		return time.Now().Unix()
	}
	return now
}

func (it *Item) locked(now int64) bool {
	return it.lockedUntil != 0 && clock(now) < it.lockedUntil
}

func (it *Item) expired(now int64) bool {
	return it.Expiry != 0 && clock(now) >= it.Expiry
}

// memSize approximates the memory footprint used for watermark
// accounting: key + value + fixed per-item overhead.
func (it *Item) memSize() int64 {
	return int64(len(it.Key)) + int64(len(it.Value)) + 80
}

// snapshot returns a copy safe to hand to callers (value shared
// read-only by convention: callers must not mutate returned bytes).
func (it *Item) snapshot() Item {
	cp := *it
	cp.slot, cp.loc = 0, storage.Loc{}
	return cp
}

// Fetched is what an op carries between an arm's runs: a document value
// read back from the storage engine, stamped with the seqno of its
// revision, and Loc, where a record is on disk. An arm that needs an
// evicted value takes f's when f is that revision's, and restores it
// inside the stripe-lock hold that goes on to use it, so the pager
// cannot evict in between. Otherwise it answers ErrValueEvicted, leaving
// in f its entry, which the next run takes without a map lookup unless
// it is gone, and where its revision was last read (the zero Loc when
// never). The zero Fetched matches nothing (seqnos start at 1); nil is
// nothing fetched.
type Fetched struct {
	Seqno uint64
	Value []byte
	Loc   storage.Loc
	entry *Item
}

// entry returns key's entry in st, st's lock held: the one f holds
// unless it is gone, else the map's.
func (st *stripe) entry(key string, f *Fetched) (*Item, bool) {
	if f != nil && f.entry != nil && !f.entry.gone {
		return f.entry, true
	}
	it, ok := st.items[key]
	return it, ok
}

// resident reports whether it's value is in memory, first restoring it
// from f, or else leaves it in f for the fetch. Runs under the stripe
// lock, on a live (not deleted) item.
func (h *HashTable) resident(st *stripe, it *Item, f *Fetched) bool {
	if it.Resident || f == nil {
		return it.Resident
	}
	if f.Seqno != it.Seqno || f.Seqno == 0 {
		f.entry, f.Loc = it, it.loc
		return false
	}
	it.Value, it.Resident, it.loc = f.Value, true, f.Loc
	h.residency(st, it, counted, inSlice)
	h.memUsed.Add(int64(len(f.Value)))
	return true
}

// place is where residency keeps an item: a live item with its value in
// memory is in its stripe's resident slice, a live one without is
// counted non-resident, a tombstone or a key not in the table is
// nowhere.
type place uint8

const (
	nowhere place = iota
	inSlice
	counted
)

func (it *Item) place() place {
	switch {
	case it.Deleted:
		return nowhere
	case it.Resident:
		return inSlice
	}
	return counted
}

// residency is the one place the non-resident count and a stripe's
// resident slice change, so they cannot disagree: it moves from the
// place it had (its caller read that before changing it) to the place
// it has now, or to nowhere when it leaves st. An item that stays
// resident keeps its slot. Runs under the stripe lock.
func (h *HashTable) residency(st *stripe, it *Item, from, to place) {
	if from == to {
		return
	}
	switch from {
	case inSlice:
		last := len(st.resident) - 1
		moved := st.resident[last]
		st.resident[it.slot-1], moved.slot = moved, it.slot
		st.resident[last] = nil
		st.resident = st.resident[:last]
		it.slot = 0
	case counted:
		h.nonResident.Add(-1)
	}
	switch to {
	case inSlice:
		st.resident = append(st.resident, it)
		it.slot = int32(len(st.resident))
	case counted:
		h.nonResident.Add(1)
	}
}

// numStripes is the sub-table fan-out per vBucket. Must be a power of
// two. 16 stripes × up to 1024 vBuckets keeps per-stripe maps small
// while making same-table lock collisions rare.
const numStripes = 16

// stripe is one independently locked sub-table. Padded so adjacent
// stripes' mutexes do not share a cache line.
type stripe struct {
	mu    sync.Mutex
	items map[string]*Item
	// resident holds the live items whose value is in memory, each once
	// (Item.slot), in no order: what a value-mode pager sweep walks, from
	// hand.
	resident []*Item
	hand     int
	_        [16]byte
}

// HashTable is the per-vBucket document table. All operations take the
// current time explicitly so expiry and lock behaviour is testable.
//
// Locking (DESIGN.md §10): each key belongs to exactly one stripe;
// operations lock that stripe only. Mutations, while still holding the
// stripe lock, enter seqMu to (a) draw the next seqno, (b) install the
// new version, and (c) emit it to the observer — so observation order
// equals seqno order. The only lock order is stripe.mu → seqMu; no
// path acquires a stripe while holding seqMu or another stripe, except
// the consistent-snapshot scan, which takes all stripes in ascending
// index order and never touches seqMu.
type HashTable struct {
	stripes [numStripes]stripe

	// seqMu serializes seqno assignment + observer emission. nextSeqno
	// is the vBucket's mutation clock: "When a document is written, a
	// sequence number is generated and associated with the mutation.
	// The maximum sequence number per vBucket is also tracked." (§4.2)
	// It is only Add-ed under seqMu (CAS-max elsewhere), and read
	// lock-free by HighSeqno.
	seqMu     sync.Mutex
	nextSeqno atomic.Uint64
	// sealed refuses every mutation at the sequencing section (Seal).
	// seqMu guards it.
	sealed bool

	// Table accounting, maintained atomically so Stats and the metrics
	// pollers never contend with the KV path.
	memUsed     atomic.Int64
	itemCount   atomic.Int64
	tombCount   atomic.Int64
	nonResident atomic.Int64

	// onMutate, when set, observes every applied mutation inside the
	// sequencing section, guaranteeing the observer sees mutations in
	// seqno order. The vBucket layer uses this to feed the disk-write
	// queue and the DCP producer atomically with the cache write. The
	// context is the mutating caller's (it carries the active trace
	// span); internally triggered mutations such as lazy expiry pass
	// context.Background().
	onMutate func(ctx context.Context, it Item)

	// expiring counts entries with a nonzero Expiry. The proactive
	// expiry pager scans a table only when this is nonzero, so
	// TTL-free workloads never pay for the periodic full-table scan.
	// After onMutate, which every Set reads on seqMu's cache line.
	expiring atomic.Int64

	// hand is the stripe the next pager sweep starts at. Last, so the
	// fields every Set touches stay on the cache line they shared.
	hand atomic.Uint32
}

// NewHashTable creates an empty table.
func NewHashTable() *HashTable {
	h := &HashTable{}
	for i := range h.stripes {
		h.stripes[i].items = make(map[string]*Item)
	}
	return h
}

// stripeOf picks key's stripe with inline FNV-1a (no allocation).
func (h *HashTable) stripeOf(key string) *stripe {
	hash := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		hash ^= uint32(key[i])
		hash *= 16777619
	}
	return &h.stripes[hash&(numStripes-1)]
}

// OnMutate registers the ordered mutation observer. Must be called
// before the table receives traffic.
func (h *HashTable) OnMutate(fn func(context.Context, Item)) { h.onMutate = fn }

// Seal refuses (on) or accepts again every mutation from the next one
// to reach the sequencing section: once Seal(true) returns, HighSeqno
// is final until Seal(false), whatever an op had checked before, and a
// refused arm answers ErrSealed having changed nothing. Replica applies
// and restorations are not this copy's mutations and still land.
func (h *HashTable) Seal(on bool) {
	h.seqMu.Lock()
	h.sealed = on
	h.seqMu.Unlock()
}

// HighSeqno returns the max sequence number assigned so far. Lock-free.
func (h *HashTable) HighSeqno() uint64 { return h.nextSeqno.Load() }

// SetHighSeqno force-sets the seqno clock. Used when a replica is
// promoted to active so the new active continues the stream.
func (h *HashTable) SetHighSeqno(s uint64) {
	for {
		cur := h.nextSeqno.Load()
		if cur >= s || h.nextSeqno.CompareAndSwap(cur, s) {
			return
		}
	}
}

// Stats reports table-level counters.
type Stats struct {
	Items       int64 // live documents (excluding tombstones)
	Tombstones  int64
	MemUsed     int64
	HighSeqno   uint64
	NonResident int64
}

// Stats returns a snapshot of the table counters. Served entirely from
// atomics: metrics polling never takes a table lock.
func (h *HashTable) Stats() Stats {
	return Stats{
		Items:       h.itemCount.Load(),
		Tombstones:  h.tombCount.Load(),
		MemUsed:     h.memUsed.Load(),
		HighSeqno:   h.nextSeqno.Load(),
		NonResident: h.nonResident.Load(),
	}
}

// Get is GetWith with nothing fetched, spelled for a caller that holds
// the table itself (bench/'s layer replica, the expiry pager, tests).
func (h *HashTable) Get(key string, now int64) (Item, error) {
	return h.GetWith(key, now, nil)
}

// GetWith returns the item for key. Expired documents are lazily
// deleted (the deletion gets a seqno and flows to observers like any
// mutation). Like every arm that reads the value, it answers
// ErrValueEvicted, with nothing changed, when the value is not in
// memory and f does not hold it; the caller (vbucket.Do) fetches it
// from storage and calls again. A resident hit allocates nothing.
func (h *HashTable) GetWith(key string, now int64, f *Fetched) (Item, error) {
	st := h.stripeOf(key)
	st.mu.Lock()
	it, ok := st.entry(key, f)
	if !ok || it.Deleted {
		st.mu.Unlock()
		return Item{}, ErrKeyNotFound
	}
	if it.expired(now) {
		h.expireStriped(context.Background(), st, it)
		st.mu.Unlock()
		return Item{}, ErrKeyNotFound
	}
	it.nru = 0
	if !h.resident(st, it, f) {
		st.mu.Unlock()
		return Item{}, ErrValueEvicted
	}
	snap := it.snapshot()
	st.mu.Unlock()
	return snap, nil
}

// GetMeta returns the item metadata even for tombstones. Used by XDCR
// conflict resolution and durability observers.
func (h *HashTable) GetMeta(key string) (Item, error) {
	st := h.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	it, ok := st.items[key]
	if !ok {
		return Item{}, ErrKeyNotFound
	}
	return it.snapshot(), nil
}

// Set stores value under key. casCheck, when nonzero, must match the
// current CAS or ErrCASMismatch is returned ("the server will then
// check this ID against the current ID in the server", §3.1.1).
// Writing to a hard-locked document requires the lock-holder's CAS.
func (h *HashTable) Set(ctx context.Context, key string, value []byte, flags uint32, expiry int64, casCheck uint64, now int64) (Item, error) {
	return h.store(ctx, key, value, flags, expiry, casCheck, now, storeSet)
}

// Add stores value only if the key does not already exist.
func (h *HashTable) Add(ctx context.Context, key string, value []byte, flags uint32, expiry int64, now int64) (Item, error) {
	return h.store(ctx, key, value, flags, expiry, 0, now, storeAdd)
}

// Replace stores value only if the key already exists.
func (h *HashTable) Replace(ctx context.Context, key string, value []byte, flags uint32, expiry int64, casCheck uint64, now int64) (Item, error) {
	return h.store(ctx, key, value, flags, expiry, casCheck, now, storeReplace)
}

func (h *HashTable) store(ctx context.Context, key string, value []byte, flags uint32, expiry int64, casCheck uint64, now int64, mode storeMode) (Item, error) {
	st := h.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	return h.storeStriped(ctx, st, st.items[key], key, value, flags, expiry, casCheck, now, mode)
}

type storeMode int

const (
	storeSet storeMode = iota
	storeAdd
	storeReplace
)

// storeStriped runs under st's lock (st owns key, whose entry is it,
// nil when the table has none).
func (h *HashTable) storeStriped(ctx context.Context, st *stripe, it *Item, key string, value []byte, flags uint32, expiry int64, casCheck uint64, now int64, mode storeMode) (Item, error) {
	exists := it != nil
	if exists && (it.Deleted || it.expired(now)) {
		if it.expired(now) && !it.Deleted {
			h.expireStriped(ctx, st, it) // a tombstone where it stands
		}
		exists = false
	}
	switch mode {
	case storeAdd:
		if exists {
			return Item{}, ErrKeyExists
		}
	case storeReplace:
		if !exists {
			return Item{}, ErrKeyNotFound
		}
	}
	if exists && it.locked(now) {
		// A locked doc is only writable with the CAS returned by
		// GetAndLock; a correct CAS write also releases the lock.
		if casCheck != it.CAS {
			return Item{}, ErrLocked
		}
	} else if casCheck != 0 {
		if !exists {
			return Item{}, ErrKeyNotFound
		}
		if it.CAS != casCheck {
			return Item{}, ErrCASMismatch
		}
	}

	rev := Item{
		Key:      key,
		Value:    value,
		CAS:      NextCAS(),
		RevSeqno: 1,
		Flags:    flags,
		Expiry:   expiry,
		Resident: true,
	}
	if it != nil {
		rev.RevSeqno = it.RevSeqno + 1
	}
	if err := h.commitStriped(ctx, st, it, &rev); err != nil {
		return Item{}, err
	}
	return rev, nil
}

// Delete tombstones the document. casCheck semantics match Set.
func (h *HashTable) Delete(ctx context.Context, key string, casCheck uint64, now int64) (Item, error) {
	st := h.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	it, ok := st.items[key]
	if !ok || it.Deleted || it.expired(now) {
		if ok && it.expired(now) && !it.Deleted {
			h.expireStriped(ctx, st, it)
		}
		return Item{}, ErrKeyNotFound
	}
	if it.locked(now) && casCheck != it.CAS {
		return Item{}, ErrLocked
	}
	if casCheck != 0 && it.CAS != casCheck {
		return Item{}, ErrCASMismatch
	}
	return h.deleteStriped(ctx, st, it)
}

// deleteStriped tombstones it and notifies observers. Runs under the
// stripe lock.
func (h *HashTable) deleteStriped(ctx context.Context, st *stripe, it *Item) (Item, error) {
	rev := Item{
		Key:      it.Key,
		CAS:      NextCAS(),
		RevSeqno: it.RevSeqno + 1,
		Deleted:  true,
	}
	if err := h.commitStriped(ctx, st, it, &rev); err != nil {
		return Item{}, err
	}
	return rev, nil
}

// expireStriped lazily deletes it, whose expiry has passed. A sealed
// table keeps it, expired: the delete is the active copy's. Runs under
// the stripe lock.
func (h *HashTable) expireStriped(ctx context.Context, st *stripe, it *Item) {
	if _, err := h.deleteStriped(ctx, st, it); err == nil {
		mExpirations.Inc()
	}
}

// commitStriped is the sequencing section: holding st's lock, it
// enters seqMu to assign rev's seqno, install it over old (nil for a
// key not in the table), and emit it to the observer in one atomic
// step. Because every mutation passes through here and seqno draw +
// emission happen under the same seqMu hold, the observer's callback
// order is exactly seqno order. rev is the caller's own, on its stack,
// and is the revision's snapshot when this returns. A sealed table
// refuses it with ErrSealed, changing nothing.
//
// Lock order: stripe.mu (held by caller) → seqMu. Nothing acquires a
// stripe lock while holding seqMu, so the order is acyclic.
func (h *HashTable) commitStriped(ctx context.Context, st *stripe, old, rev *Item) error {
	h.seqMu.Lock()
	defer h.seqMu.Unlock()
	if h.sealed {
		return ErrSealed
	}
	rev.Seqno = h.nextSeqno.Add(1)
	h.installStriped(st, old, rev)
	if h.onMutate != nil {
		h.onMutate(ctx, *rev)
	}
	return nil
}

// installStriped makes rev (which carries no slot) its key's entry,
// maintaining the accounting: over old, the entry the key has, where
// old stands, so the key's Item never changes address and the map and
// an unchanged resident slot are not written; in a new Item when the
// key has none, the only allocation of a mutation. It returns the
// entry. Runs under the stripe lock.
func (h *HashTable) installStriped(st *stripe, old, rev *Item) *Item {
	from := nowhere
	switch {
	case old == nil:
		old = new(Item)
		st.items[rev.Key] = old
		h.count(rev, 1)
	case old.Deleted == rev.Deleted && (old.Expiry != 0) == (rev.Expiry != 0):
		// The common overwrite moves one counter, not four.
		from = old.place()
		h.memUsed.Add(rev.memSize() - old.memSize())
	default:
		from = old.place()
		h.count(old, -1)
		h.count(rev, 1)
	}
	slot := old.slot
	*old = *rev
	old.slot = slot
	h.residency(st, old, from, old.place())
	return old
}

// count adds (n = 1) or takes away (n = -1) what it contributes to the
// table's counters.
func (h *HashTable) count(it *Item, n int64) {
	h.memUsed.Add(n * it.memSize())
	if it.Expiry != 0 {
		h.expiring.Add(n)
	}
	if it.Deleted {
		h.tombCount.Add(n)
	} else {
		h.itemCount.Add(n)
	}
}

// Append concatenates data after the existing raw value — the
// memcached-heritage byte-level operation. The document must exist.
func (h *HashTable) Append(ctx context.Context, key string, data []byte, casCheck uint64, now int64, f *Fetched) (Item, error) {
	return h.concat(ctx, key, data, casCheck, now, f, false)
}

// Prepend concatenates data before the existing raw value.
func (h *HashTable) Prepend(ctx context.Context, key string, data []byte, casCheck uint64, now int64, f *Fetched) (Item, error) {
	return h.concat(ctx, key, data, casCheck, now, f, true)
}

func (h *HashTable) concat(ctx context.Context, key string, data []byte, casCheck uint64, now int64, f *Fetched, front bool) (Item, error) {
	st := h.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	it, exists := st.entry(key, f)
	if !exists || it.Deleted || it.expired(now) {
		return Item{}, ErrKeyNotFound
	}
	if !h.resident(st, it, f) {
		return Item{}, ErrValueEvicted
	}
	var nv []byte
	if front {
		nv = append(append([]byte{}, data...), it.Value...)
	} else {
		nv = append(append([]byte{}, it.Value...), data...)
	}
	return h.storeStriped(ctx, st, it, key, nv, it.Flags, it.Expiry, casCheck, now, storeSet)
}

// Touch updates the expiry without changing the value. It is a
// mutation like any other (new CAS, revision and seqno), so the new
// expiry reaches disk, replicas and DCP consumers instead of living
// only in this table until the item is evicted or the node fails over.
func (h *HashTable) Touch(ctx context.Context, key string, expiry int64, now int64, f *Fetched) (Item, error) {
	st := h.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	it, ok := st.entry(key, f)
	if !ok || it.Deleted || it.expired(now) {
		return Item{}, ErrKeyNotFound
	}
	if !h.resident(st, it, f) {
		return Item{}, ErrValueEvicted
	}
	return h.storeStriped(ctx, st, it, key, it.Value, it.Flags, expiry, 0, now, storeSet)
}

// GetAndLock returns the document and takes the hard document-level
// lock for lockSeconds ("this lock will be released after a certain
// timeout to avoid deadlocks", §3.1.1). The returned CAS is the lock
// token: a Set/Delete/Unlock with it releases the lock.
func (h *HashTable) GetAndLock(key string, lockSeconds int64, now int64, f *Fetched) (Item, error) {
	st := h.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	it, ok := st.entry(key, f)
	if !ok || it.Deleted || it.expired(now) {
		return Item{}, ErrKeyNotFound
	}
	if it.locked(now) {
		return Item{}, ErrLocked
	}
	if !h.resident(st, it, f) {
		return Item{}, ErrValueEvicted
	}
	it.lockedUntil = clock(now) + lockSeconds
	it.CAS = NextCAS() // lock token differs from the pre-lock CAS
	return it.snapshot(), nil
}

// Unlock releases a hard lock given the lock-token CAS.
func (h *HashTable) Unlock(key string, cas uint64, now int64) error {
	st := h.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	it, ok := st.items[key]
	if !ok || it.Deleted {
		return ErrKeyNotFound
	}
	if !it.locked(now) {
		return ErrNotLocked
	}
	if it.CAS != cas {
		return ErrLocked
	}
	it.lockedUntil = 0
	return nil
}

// ApplyMeta installs an item with externally supplied metadata (seqno,
// CAS, rev). Replica vBuckets and XDCR consumers use this so the copy
// carries the origin's metadata. The vBucket seqno clock advances to
// cover the applied seqno.
func (h *HashTable) ApplyMeta(ctx context.Context, it Item) {
	BumpCAS(it.CAS)
	st := h.stripeOf(it.Key)
	st.mu.Lock()
	defer st.mu.Unlock()
	it.Resident = !it.Deleted
	it.slot = 0 // a copied item carries no membership
	// The applied mutation keeps its origin seqno; the emission still
	// rides the sequencing section so observer order and clock updates
	// stay atomic with the install.
	h.seqMu.Lock()
	h.SetHighSeqno(it.Seqno)
	h.installStriped(st, st.items[it.Key], &it)
	if h.onMutate != nil {
		h.onMutate(ctx, it)
	}
	h.seqMu.Unlock()
}

// ApplyRemote applies a cross-datacenter (XDCR) mutation using the
// paper's conflict resolution (§4.6.1): "the document with the most
// updates is considered the winner. If both clusters have the same
// number of updates for a document, additional metadata fields are
// used to pick the winner." Most-updates = RevSeqno; the tiebreak is
// the CAS. The incoming revision keeps its origin RevSeqno/CAS but is
// assigned a fresh local sequence number, since seqnos are a
// per-vBucket, per-cluster lineage. It reports whether the incoming
// revision won.
func (h *HashTable) ApplyRemote(ctx context.Context, key string, value []byte, deleted bool, cas, revSeqno uint64, flags uint32, expiry int64) (bool, error) {
	BumpCAS(cas)
	st := h.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	old := st.items[key]
	if old != nil {
		if revSeqno < old.RevSeqno {
			return false, nil
		}
		if revSeqno == old.RevSeqno && cas <= old.CAS {
			return false, nil
		}
	}
	rev := Item{
		Key:      key,
		Value:    value,
		CAS:      cas,
		RevSeqno: revSeqno,
		Flags:    flags,
		Expiry:   expiry,
		Deleted:  deleted,
		Resident: !deleted,
	}
	if err := h.commitStriped(ctx, st, old, &rev); err != nil {
		return false, err
	}
	return true, nil
}

// Restore inserts an item recovered from the storage engine without
// treating it as a new mutation: no observer notification, no
// re-persistence. Used by restart warmup and by full-eviction miss
// fetches. If the key already exists in the table (a concurrent write
// won), Restore installs nothing — the in-memory copy is always newer.
// A full-eviction fetch passes f, which says where the record is
// (Loc), and is handed the key's entry, as an arm's miss hands it.
func (h *HashTable) Restore(it Item, f *Fetched) {
	BumpCAS(it.CAS)
	st := h.stripeOf(it.Key)
	st.mu.Lock()
	defer st.mu.Unlock()
	e, exists := st.items[it.Key]
	if !exists {
		it.Resident = !it.Deleted
		it.slot = 0
		if f != nil {
			it.loc = f.Loc
		}
		h.SetHighSeqno(it.Seqno)
		e = h.installStriped(st, nil, &it)
	}
	if f != nil {
		f.entry = e
	}
}

// EvictItem removes a clean, unlocked document entirely — key,
// metadata, and value — the "full eviction" option of §4.3.3. The
// document must be recoverable from the storage engine (its seqno at
// or below the persisted watermark). Reports whether it was evicted.
func (h *HashTable) EvictItem(key string, persistedSeqno uint64, now int64) bool {
	st := h.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	it, ok := st.items[key]
	if !ok || it.locked(now) || it.Seqno > persistedSeqno {
		return false
	}
	h.evictStriped(st, it, true)
	return true
}

// EvictValue drops the value (keeping key and metadata) if the document
// is clean per the caller's persistence check. Returns bytes freed.
func (h *HashTable) EvictValue(key string) int64 {
	st := h.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	it, ok := st.items[key]
	if !ok || it.Deleted || !it.Resident {
		return 0
	}
	return h.evictStriped(st, it, false)
}

// evictStriped evicts it where it stands, the whole item (full) or its
// value, and returns the bytes that frees. The caller has checked that
// it may go. Runs under the stripe lock.
func (h *HashTable) evictStriped(st *stripe, it *Item, full bool) int64 {
	freed := it.memSize()
	if full {
		h.residency(st, it, it.place(), nowhere)
		it.gone = true
		delete(st.items, it.Key)
		h.count(it, -1)
		mEvictionsFull.Inc()
		return freed
	}
	it.Value, it.Resident = nil, false
	freed -= it.memSize()
	h.residency(st, it, inSlice, counted)
	h.memUsed.Add(-freed)
	mEvictionsVal.Inc()
	return freed
}

// ForEach calls fn with a snapshot of every live item (no tombstones),
// in unspecified order. fn must not call back into the table. The scan
// is stripe-incremental: each stripe is locked only while it is
// copied, so concurrent operations on other stripes proceed — but the
// view is not a single point in time across stripes.
func (h *HashTable) ForEach(fn func(Item) bool) {
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock()
		snap := make([]Item, 0, len(st.items))
		for _, it := range st.items {
			if !it.Deleted {
				snap = append(snap, it.snapshot())
			}
		}
		st.mu.Unlock()
		for _, it := range snap {
			if !fn(it) {
				return
			}
		}
	}
}

// ForEachAll is ForEach including tombstones, with a consistent
// point-in-time view: all stripes are locked (in ascending index
// order) for the duration of the copy, exactly like the pre-striping
// full-table lock. DCP backfill snapshots need this atomicity — the
// snapshot must contain every mutation with seqno ≤ the max seqno it
// observes, or the stream would dedup (drop) a live mutation.
func (h *HashTable) ForEachAll(fn func(Item) bool) {
	var snap []Item
	for i := range h.stripes {
		h.stripes[i].mu.Lock()
	}
	total := 0
	for i := range h.stripes {
		total += len(h.stripes[i].items)
	}
	snap = make([]Item, 0, total)
	for i := range h.stripes {
		for _, it := range h.stripes[i].items {
			snap = append(snap, it.snapshot())
		}
	}
	for i := len(h.stripes) - 1; i >= 0; i-- {
		h.stripes[i].mu.Unlock()
	}
	for _, it := range snap {
		if !fn(it) {
			return
		}
	}
}

// sweep is one turn of the pager's clock over the table, ended early
// once need bytes are freed. An item that is unlocked and clean (seqno
// at or below persistedSeqno: dirty state must stay) is aged, or
// evicted in place when its NRU clock has run out. In value mode only
// the stripes' resident items are visited, each stripe's from where the
// last sweep left it; in full mode any item (value-evicted ones and
// tombstones included) may go, and the map's own random order is the
// hand. It takes one stripe lock at a time, so it never stalls the
// whole table: the pager is a background janitor, not a consistency
// point. It returns how many it evicted.
func (h *HashTable) sweep(now int64, persistedSeqno uint64, full bool, need int64) (evicted int) {
	visited := 0
	// visit reports whether it evicted it.
	visit := func(st *stripe, it *Item) bool {
		visited++
		if it.locked(now) || it.Seqno > persistedSeqno {
			return false
		}
		if it.nru < 2 {
			it.nru++
			return false
		}
		need -= h.evictStriped(st, it, full)
		evicted++
		return true
	}
	for n := 0; n < numStripes && need > 0; n++ {
		st := &h.stripes[h.hand.Load()%numStripes]
		st.mu.Lock()
		if full {
			for _, it := range st.items {
				if need <= 0 {
					break
				}
				visit(st, it)
			}
		} else {
			i := st.hand
			for i < len(st.resident) && need > 0 {
				// An eviction moves the stripe's last item, not yet
				// visited, into slot i.
				if !visit(st, st.resident[i]) {
					i++
				}
			}
			if i >= len(st.resident) {
				i = 0
			}
			st.hand = i
		}
		st.mu.Unlock()
		if need > 0 { // the stripe was walked to its end
			h.hand.Add(1)
		}
	}
	mPagerVisited.Add(uint64(visited))
	return evicted
}
