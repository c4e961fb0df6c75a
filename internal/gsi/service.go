package gsi

import (
	"context"
	"fmt"
	"net/url"
	"path/filepath"
	"sort"
	"sync"

	"couchgo/internal/dcp"
	"couchgo/internal/feed"
	"couchgo/internal/metrics"
	"couchgo/internal/value"
)

// Drain-rate counters for the §4.4.2 projector→indexer pipeline:
// mutations the projector routed toward index builds versus entries
// the indexers actually applied. Their rates diverging means an
// indexer is falling behind its stream.
var (
	mProjected = metrics.Default.Counter("couchgo_gsi_projected_total")
	mIndexed   = metrics.Default.Counter("couchgo_gsi_indexed_total")
)

// Service is the index service of one bucket (logically; partitions
// may be placed on different index nodes — in this reproduction the
// Service owns every partition indexer and the cluster layer decides
// which node runs the Service, per multi-dimensional scaling).
//
// It plays the paper's Index Manager role: "receiving requests for
// indexing operations (e.g., creation, deletion, maintenance, scan,
// lookup)".
type Service struct {
	dir string
	// keyspace is the bucket whose mutations the projector routes.
	keyspace string
	// hub is the bucket's feed hub: its producers are what an initial
	// build backfills from.
	hub *feed.Hub
	// feed is the projector's subscription to hub. It lives as long as
	// the service, so its resume state follows vBuckets as they move
	// between data nodes, and its applied-seqno vector is the one
	// request_plus scans wait on.
	feed *feed.Feed
	// OnCatalogChange, if set before the service is used, is called
	// with the service locked right after every change to what
	// ListIndexes answers (an index registered, built or dropped), so a
	// reader that sees the callback's effect also sees the change.
	OnCatalogChange func()

	mu      sync.Mutex
	indexes map[string]*indexState // key: keyspace + "/" + name
	// byKeyspace lists each keyspace's indexes for the projector. Rebuilt
	// (never edited) on every catalog change, so a slice read under mu
	// stays valid after the unlock.
	byKeyspace map[string][]*indexState
}

type indexState struct {
	cd    *compiledDef
	parts []*Indexer
	built bool
}

// NewService creates the index service of keyspace, writing
// standard-mode logs under dir, and subscribes its projector to the
// bucket's hub as "gsi-projector".
func NewService(dir, keyspace string, hub *feed.Hub) (*Service, error) {
	s := &Service{dir: dir, keyspace: keyspace, hub: hub, indexes: make(map[string]*indexState)}
	f, err := hub.Subscribe("gsi-projector", "gsi", projector{s})
	if err != nil {
		return nil, err
	}
	s.feed = f
	return s, nil
}

func indexKey(keyspace, name string) string { return keyspace + "/" + name }

// CreateIndex registers an index and, unless deferred, builds it. A
// failed build returns its error and leaves the index registered but
// unbuilt, as a deferred one is; BuildIndex tries again.
func (s *Service) CreateIndex(def Def) error {
	cd, err := compileDef(def)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := indexKey(def.Keyspace, def.Name)
	if _, ok := s.indexes[key]; ok {
		return ErrIndexExists
	}
	st := &indexState{cd: cd}
	for p := 0; p < cd.NumPartitions; p++ {
		ix, err := NewIndexer(cd, p, filepath.Join(s.dir, logName(def.Keyspace, def.Name, p)))
		if err != nil {
			for _, ix := range st.parts {
				ix.close(false)
			}
			return err
		}
		st.parts = append(st.parts, ix)
	}
	s.indexes[key] = st
	s.catalogChangedLocked()
	s.mu.Unlock()
	// Initial build: stream the existing data set through this index
	// only. The per-document seqno guard in the indexer resolves races
	// with the steady-state projector feed. The index turns scannable
	// only once the build is done: the projector feed's vector already
	// covers the existing data, so a request_plus scan has nothing else
	// to hold it off half-filled partitions.
	if !def.Deferred {
		err = s.backfillIndex(st)
	}
	s.mu.Lock()
	st.built = !def.Deferred && err == nil
	s.catalogChangedLocked()
	return err
}

// catalogChangedLocked follows every change to s.indexes or to an
// index's built flag, with s.mu held.
func (s *Service) catalogChangedLocked() {
	s.byKeyspace = make(map[string][]*indexState)
	for _, st := range s.indexes {
		s.byKeyspace[st.cd.Keyspace] = append(s.byKeyspace[st.cd.Keyspace], st)
	}
	if s.OnCatalogChange != nil {
		s.OnCatalogChange()
	}
}

// logName names a partition's log, one to one in (keyspace, name,
// partition): an escaped name has no '@', and the partition ends it.
func logName(keyspace, name string, part int) string {
	return fmt.Sprintf("idx_%s@%s_p%d.log", url.QueryEscape(keyspace), url.QueryEscape(name), part)
}

// BuildIndex builds a deferred index (§3.3.3's {"defer_build": true}):
// it backfills the existing data set and marks the index scannable.
func (s *Service) BuildIndex(keyspace, name string) error {
	s.mu.Lock()
	st, ok := s.indexes[indexKey(keyspace, name)]
	s.mu.Unlock()
	if !ok {
		return ErrNoSuchIndex
	}
	if err := s.backfillIndex(st); err != nil {
		return err
	}
	s.mu.Lock()
	st.built = true
	s.catalogChangedLocked()
	s.mu.Unlock()
	return nil
}

// DropIndex removes an index and deletes its partitions' logs.
func (s *Service) DropIndex(keyspace, name string) error {
	s.mu.Lock()
	st, ok := s.indexes[indexKey(keyspace, name)]
	delete(s.indexes, indexKey(keyspace, name))
	s.catalogChangedLocked()
	s.mu.Unlock()
	if !ok {
		return ErrNoSuchIndex
	}
	for _, p := range st.parts {
		p.close(false)
	}
	return nil
}

// IndexMeta is the catalog's view of an index (used by the planner).
type IndexMeta struct {
	Def
	SecCanonical   []string
	WhereCanonical string
	Built          bool
	IsArrayIndex   bool
}

// ListIndexes returns catalog metadata for a keyspace, sorted by name.
func (s *Service) ListIndexes(keyspace string) []IndexMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []IndexMeta
	for _, st := range s.byKeyspace[keyspace] {
		out = append(out, IndexMeta{
			Def:            st.cd.Def,
			SecCanonical:   st.cd.SecCanonical,
			WhereCanonical: st.cd.WhereCanonical,
			Built:          st.built,
			IsArrayIndex:   st.cd.arrayKey != nil,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Scan scatter/gathers one page over the index's partitions ("it does
// scatter/gather for queries in case of a partitioned GSI index"): every
// partition serves its own page from the same continuation, and
// MergePages keeps the index's. A request_plus scan first waits, once
// and bounded by ctx, until the keyspace projector's feed has applied
// opts.WaitSeqnos: the projector routes a mutation into every index
// before the feed counts it applied, so the one vector covers every
// partition of every index.
func (s *Service) Scan(ctx context.Context, keyspace, name string, opts ScanOptions) ([]ScanItem, error) {
	s.mu.Lock()
	st, ok := s.indexes[indexKey(keyspace, name)]
	ok = ok && st.built // written under mu by a build that ends mid-scan
	s.mu.Unlock()
	if !ok {
		return nil, ErrNoSuchIndex
	}
	if opts.WaitSeqnos != nil {
		if err := s.feed.Wait(ctx, opts.WaitSeqnos); err != nil {
			return nil, err
		}
		opts.WaitSeqnos = nil
	}
	if len(st.parts) == 1 {
		return st.parts[0].Scan(ctx, opts)
	}
	pages := make([][]ScanItem, len(st.parts))
	partOpts := opts
	partOpts.Page = nil // the caller's one buffer cannot take every partition's page
	var wg sync.WaitGroup
	for i, p := range st.parts {
		wg.Add(1)
		go func(i int, p *Indexer) {
			defer wg.Done()
			pages[i] = p.tree.Scan(partOpts)
		}(i, p)
	}
	wg.Wait()
	return MergePages(pages, opts.Reverse, opts.Limit), nil
}

// route delivers a batch's key versions for every index on the
// keyspace. It implements both the Projector ("mapping incoming
// mutations to a set of Global Secondary Key Versions") and the Router
// ("deciding which indexer to send the message to").
func (s *Service) route(vb int, batch []dcp.Mutation) {
	s.mu.Lock()
	states := s.byKeyspace[s.keyspace]
	s.mu.Unlock()
	if len(states) == 0 {
		return
	}
	mProjected.Add(uint64(len(batch)))
	project(vb, batch, states...)
}

// project turns a batch of one vBucket's mutations into each index's key
// versions and hands them to the partitions that own the documents, one
// Apply per partition for the whole batch: the doc ID is the partition
// key, so a document never changes partition and no other partition has
// anything to clean up. A value is decoded once for all the indexes, and
// only validated when none of them reads it; a deletion and a value that
// is not JSON leave every index, the primary included.
func project(vb int, batch []dcp.Mutation, states ...*indexState) {
	reads := false
	for _, st := range states {
		reads = reads || st.cd.readsDoc()
	}
	// The key versions, in seqno order, per partition of every index:
	// index i's partition p is kvs[base+p], base the partitions of the
	// indexes before it.
	parts := 0
	for _, st := range states {
		parts += len(st.parts)
	}
	kvs := make([][]KeyVersion, parts)
	for _, m := range batch {
		var doc any
		ok := !m.Deleted
		if ok && reads {
			doc, ok = value.Parse(m.Value)
		} else if ok {
			ok = value.Valid(m.Value)
		}
		base := 0
		for _, st := range states {
			var entries [][]any
			if ok {
				if ents, err := st.cd.entries(m.Key, doc, m.CAS); err == nil {
					entries = ents
				}
			}
			at := base + st.cd.Partition(m.Key)
			kvs[at] = append(kvs[at], KeyVersion{
				Index: st.cd.Name, VB: vb, Seqno: m.Seqno, DocID: m.Key, Entries: entries, Trace: m.Trace,
			})
			base += len(st.parts)
		}
	}
	base := 0
	for _, st := range states {
		for p, ix := range st.parts {
			if part := kvs[base+p]; len(part) > 0 {
				ix.Apply(part...)
			}
		}
		base += len(st.parts)
	}
}

// projector is the Service's feed consumer: the bucket's mutations,
// routed as key versions to the indexers.
type projector struct{ s *Service }

// Apply implements feed.Consumer: route a batch's key versions to every
// index on the keyspace.
func (p projector) Apply(vb int, batch []dcp.Mutation) {
	p.s.route(vb, batch)
}

// Rollback implements feed.Rollbacker: a promoted vBucket copy lacks
// mutations the indexers already applied, so purge the partition from
// every index on the keyspace and rebuild it from the re-streamed
// history. Without the purge the per-document seqno guard would
// reject the re-streamed (lower-seqno) versions and entries from the
// lost branch would linger as phantoms.
func (p projector) Rollback(vb int, _ uint64) uint64 {
	p.s.mu.Lock()
	states := p.s.byKeyspace[p.s.keyspace]
	p.s.mu.Unlock()
	for _, st := range states {
		for _, ix := range st.parts {
			ix.PurgeVB(vb)
		}
	}
	return 0
}

// backfillIndex performs an index's initial build over the hub's
// vBuckets: a dedicated DCP stream from seqno 0 per
// vBucket, consumed up to the high seqno observed at start. Newer
// mutations arrive via the steady-state stream; the indexer's
// per-document seqno guard makes the overlap safe. A vBucket whose
// stream cannot open, or ends short of that seqno, fails the build: an
// index marked built over a partition never filled would answer
// request_plus scans wrongly.
func (s *Service) backfillIndex(st *indexState) error {
	if st.cd.Keyspace != s.keyspace {
		return nil // the hub's producers hold another keyspace
	}
	for vb, producer := range s.hub.Producers() {
		target, err := producer.HighSeqno()
		if err != nil {
			return fmt.Errorf("gsi: build %s: vb %d: %w", st.cd.Name, vb, err)
		}
		if target == 0 {
			continue
		}
		stream, err := producer.ResumeStream("gsi-build:"+st.cd.Name, 0, 0)
		if err != nil {
			return fmt.Errorf("gsi: build %s: vb %d: %w", st.cd.Name, vb, err)
		}
		var done uint64
		for done < target {
			batch, ok := stream.Next()
			if !ok {
				break
			}
			project(vb, batch, st)
			done = batch[len(batch)-1].Seqno
		}
		stream.Close()
		if done < target {
			return fmt.Errorf("gsi: build %s: vb %d: stream ended at seqno %d of %d", st.cd.Name, vb, done, target)
		}
	}
	return nil
}

// Close unsubscribes the projector and shuts down every indexer,
// keeping the indexes' logs.
func (s *Service) Close() {
	s.hub.Unsubscribe(s.feed.Name())
	s.mu.Lock()
	states := s.indexes
	s.indexes = make(map[string]*indexState)
	s.byKeyspace = nil
	s.mu.Unlock()
	for _, st := range states {
		for _, p := range st.parts {
			p.Close()
		}
	}
}
