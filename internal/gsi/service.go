package gsi

import (
	"context"
	"fmt"
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

// Service is the index service of one cluster (logically; partitions
// may be placed on different index nodes — in this reproduction the
// Service owns every partition indexer and the cluster layer decides
// which node runs the Service, per multi-dimensional scaling).
//
// It plays the paper's Index Manager role: "receiving requests for
// indexing operations (e.g., creation, deletion, maintenance, scan,
// lookup)".
type Service struct {
	dir string
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
	// projectors: one shared projector per keyspace. The projector's
	// feed state (resume positions) lives here, at the service level,
	// so it survives vBucket movement between data nodes.
	projectors map[string]*Projector
}

type indexState struct {
	cd    *compiledDef
	parts []*Indexer
	built bool
}

// NewService creates an index service writing standard-mode logs under
// dir.
func NewService(dir string) *Service {
	return &Service{
		dir:        dir,
		indexes:    make(map[string]*indexState),
		projectors: make(map[string]*Projector),
	}
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
		logPath := filepath.Join(s.dir, fmt.Sprintf("idx_%s_%s_p%d.log", sanitize(def.Keyspace), sanitize(def.Name), p))
		ix, err := NewIndexer(cd, p, logPath)
		if err != nil {
			return err
		}
		st.parts = append(st.parts, ix)
	}
	s.indexes[key] = st
	s.catalogChangedLocked()
	proj := s.projectors[def.Keyspace]
	s.mu.Unlock()
	// Initial build: stream the existing data set through this index
	// only. The per-document seqno guard in the indexer resolves races
	// with the steady-state projector feed. The index turns scannable
	// only once the build is done: the projector feed's vector already
	// covers the existing data, so a request_plus scan has nothing else
	// to hold it off half-filled partitions.
	if !def.Deferred && proj != nil {
		err = proj.backfillIndex(st)
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

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == '/' || r == '\\' || r == ':' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}

// BuildIndex builds a deferred index (§3.3.3's {"defer_build": true}):
// it backfills the existing data set and marks the index scannable.
func (s *Service) BuildIndex(keyspace, name string) error {
	s.mu.Lock()
	st, ok := s.indexes[indexKey(keyspace, name)]
	proj := s.projectors[keyspace]
	s.mu.Unlock()
	if !ok {
		return ErrNoSuchIndex
	}
	if proj != nil {
		if err := proj.backfillIndex(st); err != nil {
			return err
		}
	}
	s.mu.Lock()
	st.built = true
	s.catalogChangedLocked()
	s.mu.Unlock()
	return nil
}

// DropIndex removes an index.
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
		p.Close()
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

// Lookup returns one index's metadata.
func (s *Service) Lookup(keyspace, name string) (IndexMeta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.indexes[indexKey(keyspace, name)]
	if !ok {
		return IndexMeta{}, ErrNoSuchIndex
	}
	return IndexMeta{
		Def:            st.cd.Def,
		SecCanonical:   st.cd.SecCanonical,
		WhereCanonical: st.cd.WhereCanonical,
		Built:          st.built,
		IsArrayIndex:   st.cd.arrayKey != nil,
	}, nil
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
	proj := s.projectors[keyspace]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNoSuchIndex
	}
	if opts.WaitSeqnos != nil {
		if proj == nil {
			// No data node has attached yet: wait on the projector they
			// will attach to.
			proj = NewProjector(s, keyspace)
		}
		if err := proj.feed.Wait(ctx, opts.WaitSeqnos); err != nil {
			return nil, err
		}
		opts.WaitSeqnos = nil
	}
	if len(st.parts) == 1 {
		return st.parts[0].Scan(ctx, opts)
	}
	pages := make([][]ScanItem, len(st.parts))
	var wg sync.WaitGroup
	for i, p := range st.parts {
		wg.Add(1)
		go func(i int, p *Indexer) {
			defer wg.Done()
			pages[i] = p.tree.Scan(opts)
		}(i, p)
	}
	wg.Wait()
	return MergePages(pages, opts.Reverse, opts.Limit), nil
}

// Count counts matching entries across partitions.
func (s *Service) Count(keyspace, name string, opts ScanOptions) (int, error) {
	s.mu.Lock()
	st, ok := s.indexes[indexKey(keyspace, name)]
	ok = ok && st.built
	s.mu.Unlock()
	if !ok {
		return 0, ErrNoSuchIndex
	}
	total := 0
	for _, p := range st.parts {
		total += p.tree.Count(opts)
	}
	return total, nil
}

// route delivers a mutation's key versions for every index on the
// keyspace. It implements both the Projector ("mapping incoming
// mutations to a set of Global Secondary Key Versions") and the Router
// ("deciding which indexer to send the message to").
func (s *Service) route(keyspace string, vb int, m dcp.Mutation) {
	s.mu.Lock()
	states := s.byKeyspace[keyspace]
	s.mu.Unlock()
	if len(states) == 0 {
		return
	}
	mProjected.Inc()
	project(vb, m, states...)
}

// project turns one mutation into each index's key version and hands it
// to the partition that owns the document: the doc ID is the partition
// key, so a document never changes partition and no other partition has
// anything to clean up. The value is decoded once for all the indexes,
// and only validated when none of them reads it; a deletion and a value
// that is not JSON leave every index, the primary included.
func project(vb int, m dcp.Mutation, states ...*indexState) {
	var doc any
	ok := !m.Deleted
	if ok {
		reads := false
		for _, st := range states {
			reads = reads || st.cd.readsDoc()
		}
		if reads {
			doc, ok = value.Parse(m.Value)
		} else {
			ok = value.Valid(m.Value)
		}
	}
	for _, st := range states {
		var entries [][]any
		if ok {
			if ents, err := st.cd.entries(m.Key, doc, m.CAS); err == nil {
				entries = ents
			}
		}
		st.parts[st.cd.Partition(m.Key)].Apply(KeyVersion{
			Index: st.cd.Name, VB: vb, Seqno: m.Seqno, DocID: m.Key, Entries: entries,
		})
	}
}

// Projector consumes the keyspace's per-vBucket DCP feeds and routes
// key versions to the indexers. One shared Projector exists per
// keyspace; every data node attaches its active vBuckets' producers
// through the same instance, so the feed layer's resume state follows
// partitions as they move between nodes. Its feed's applied-seqno
// vector is the one request_plus scans of the keyspace wait on.
type Projector struct {
	svc      *Service
	keyspace string
	hub      *feed.Hub
	feed     *feed.Feed
}

// NewProjector returns the keyspace's shared projector, creating it on
// first use and registering it with the service so CREATE INDEX can
// trigger initial builds over the projector's vBuckets.
func NewProjector(svc *Service, keyspace string) *Projector {
	// Construct outside svc.mu: the feed layer takes its own locks and
	// must never be entered with service state locked. Subscribing to an
	// empty, open hub cannot fail and starts no stream, so a concurrent
	// first use that loses the race below just discards its hub.
	np := &Projector{svc: svc, keyspace: keyspace, hub: feed.NewHub("gsi")}
	np.feed, _ = np.hub.Subscribe("gsi-projector", np)
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if p, ok := svc.projectors[keyspace]; ok {
		return p
	}
	svc.projectors[keyspace] = np
	return np
}

// Apply implements feed.Consumer: route one mutation's key versions to
// every index on the keyspace.
func (p *Projector) Apply(vb int, m dcp.Mutation) {
	p.svc.route(p.keyspace, vb, m)
}

// Rollback implements feed.Rollbacker: a promoted vBucket copy lacks
// mutations the indexers already applied, so purge the partition from
// every index on the keyspace and rebuild it from the re-streamed
// history. Without the purge the per-document seqno guard would
// reject the re-streamed (lower-seqno) versions and entries from the
// lost branch would linger as phantoms.
func (p *Projector) Rollback(vb int, _ uint64) uint64 {
	p.svc.mu.Lock()
	states := p.svc.byKeyspace[p.keyspace]
	p.svc.mu.Unlock()
	for _, st := range states {
		for _, ix := range st.parts {
			ix.PurgeVB(vb)
		}
	}
	return 0
}

// AttachVB starts projecting a vBucket's mutations. Re-attaching the
// same producer is a no-op (idempotent reconciliation); a changed
// producer resumes from the recorded position, rolling indexes back
// first if the new producer's history demands it.
func (p *Projector) AttachVB(vb int, producer dcp.StreamSource) error {
	return p.hub.AttachVB(vb, producer)
}

// DetachVB stops projecting a vBucket.
func (p *Projector) DetachVB(vb int) {
	p.hub.DetachVB(vb)
}

// FeedStats describes the projector's feeds.
func (p *Projector) FeedStats() []feed.Stat {
	return p.hub.Stats()
}

// backfillIndex performs an index's initial build over this
// projector's vBuckets: a dedicated DCP stream from seqno 0 per
// vBucket, consumed up to the high seqno observed at start. Newer
// mutations arrive via the steady-state stream; the indexer's
// per-document seqno guard makes the overlap safe. A vBucket whose
// stream cannot open, or ends short of that seqno, fails the build: an
// index marked built over a partition never filled would answer
// request_plus scans wrongly.
func (p *Projector) backfillIndex(st *indexState) error {
	for vb, producer := range p.hub.Producers() {
		target, err := producer.HighSeqno()
		if err != nil {
			return fmt.Errorf("gsi: build %s: vb %d: %w", st.cd.Name, vb, err)
		}
		if target == 0 {
			continue
		}
		s, err := producer.ResumeStream("gsi-build:"+st.cd.Name, 0, 0)
		if err != nil {
			return fmt.Errorf("gsi: build %s: vb %d: %w", st.cd.Name, vb, err)
		}
		var done uint64
		for done < target {
			batch, ok := s.Next()
			if !ok {
				break
			}
			for _, m := range batch {
				project(vb, m, st)
			}
			done = batch[len(batch)-1].Seqno
		}
		s.Close()
		if done < target {
			return fmt.Errorf("gsi: build %s: vb %d: stream ended at seqno %d of %d", st.cd.Name, vb, done, target)
		}
	}
	return nil
}

// Close stops the projector's feeds.
func (p *Projector) Close() {
	p.hub.Close()
}

// FeedStats describes the feeds of one keyspace's projector.
func (s *Service) FeedStats(keyspace string) []feed.Stat {
	s.mu.Lock()
	p := s.projectors[keyspace]
	s.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.FeedStats()
}

// Close shuts down every projector feed and every indexer.
func (s *Service) Close() {
	s.mu.Lock()
	states := s.indexes
	s.indexes = make(map[string]*indexState)
	s.byKeyspace = nil
	projectors := s.projectors
	s.projectors = make(map[string]*Projector)
	s.mu.Unlock()
	for _, p := range projectors {
		p.Close()
	}
	for _, st := range states {
		for _, p := range st.parts {
			p.Close()
		}
	}
}

// Partitions exposes the partition indexers (tests, snapshots).
func (s *Service) Partitions(keyspace, name string) ([]*Indexer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.indexes[indexKey(keyspace, name)]
	if !ok {
		return nil, ErrNoSuchIndex
	}
	return append([]*Indexer(nil), st.parts...), nil
}
