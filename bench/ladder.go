package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/executor"
	"couchgo/internal/gsi"
	"couchgo/internal/memcproto"
	"couchgo/internal/n1ql"
	"couchgo/internal/storage"
	"couchgo/internal/vbucket"
)

// The ladder is the traced pass. One goroutine replays a sample of the
// workload's op stream, and for every op calls each layer's public
// entry point in turn on the same key and value, recording one span per
// call. The top rungs are the live cluster (core.Client, and on a wire
// workload transport.Conn.Roundtrip against the live server); the rungs
// below are standalone replicas of a layer — a private vbucket.VBucket,
// cache.HashTable, storage.VBFile and gsi.Indexer holding the sample's
// keys — because the live instances sit behind core (or in another
// process) and cannot be called alone. A rung's parent is the rung that
// would have called it in a real op, so self time = span − children
// decomposes the op by module. README.md says why a standalone rung is
// still comparable across commits.

// rung names one kind of span. Spans hold the index, not the string, so
// that the million-span slice of an in-process workload carries no
// pointers for the harness's garbage collector to trace.
type rung uint8

const (
	rungClient rung = iota
	rungRoundtrip
	rungCodec
	rungVBucket
	rungCache
	rungStorage
	rungProbePlain
	rungProbeReplicate
	rungProbePersist
	rungQuery
	rungParse
	rungScan
	rungPhase // first of the executor's phases, in phaseNames order
)

var phaseNames = []string{"parse", "plan", "scan", "fetch", "join", "unnest", "filter", "group", "project", "sort"}

var rungNames = append([]string{
	"core.client", "transport.roundtrip", "memcproto.codec", "vbucket", "cache", "storage",
	"probe.set_plain", "probe.set_replicate", "probe.set_persist",
	"core.query", "n1ql.parse", "gsi.scan",
}, func() []string {
	out := make([]string, len(phaseNames))
	for i, p := range phaseNames {
		out[i] = "query." + p
	}
	return out
}()...)

func (r rung) String() string { return rungNames[r] }

// phase is the rung of a phase this harness names itself.
func phase(operator string) rung {
	r, _ := phaseRung(operator)
	return r
}

// phaseRung is the rung of an executor phase, and whether it has one.
func phaseRung(operator string) (rung, bool) {
	for i, p := range phaseNames {
		if p == operator {
			return rungPhase + rung(i), true
		}
	}
	return 0, false
}

// span is one timed call into one layer.
type span struct {
	Start, End int64 // ns since the ladder began
	Parent     int32 // index into the span list, -1 for a root
	Op         int32 // spans of one operation share this
	Rung       rung
	Kind       opKind
	// Synthetic marks a span rebuilt from the executor's phase timings:
	// its duration is measured, its position inside the parent is not.
	Synthetic bool
}

// spanJSON is a span as the trace file shows it.
type spanJSON struct {
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Parent    int32  `json:"parent"`
	Op        int32  `json:"op"`
	Kind      string `json:"kind"`
	Synthetic bool   `json:"synthetic,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// alloc reserves a span whose call has not started yet, so that a child
// measured before its parent can still name it.
func (t *tracer) alloc(r rung, parent, op int, kind opKind) int {
	t.spans = append(t.spans, span{Rung: r, Parent: int32(parent), Op: int32(op), Kind: kind})
	return len(t.spans) - 1
}

func (t *tracer) start(i int) { t.spans[i].Start = int64(time.Since(t.t0)) }
func (t *tracer) end(i int)   { t.spans[i].End = int64(time.Since(t.t0)) }

func (t *tracer) begin(r rung, parent, op int, kind opKind) int {
	i := t.alloc(r, parent, op, kind)
	t.start(i)
	return i
}

// add records a span of known duration laid at a given start.
func (t *tracer) add(r rung, parent, op int, kind opKind, start int64, d time.Duration) int {
	i := t.alloc(r, parent, op, kind)
	t.spans[i].Start, t.spans[i].End, t.spans[i].Synthetic = start, start+int64(d), true
	return i
}

// traceFileSpans caps the spans written to the trace file: the ladder
// of an in-process workload records over a million, and the first ops
// show the shape as well as all of them. Every span is aggregated.
const traceFileSpans = 60000

func (t *tracer) forFile() []spanJSON {
	n := min(len(t.spans), traceFileSpans)
	out := make([]spanJSON, n)
	for i, s := range t.spans[:n] {
		out[i] = spanJSON{Name: s.Rung.String(), Start: s.Start, End: s.End, Parent: s.Parent,
			Op: s.Op, Kind: s.Kind.String(), Synthetic: s.Synthetic}
	}
	return out
}

const (
	ladderSalt = 0x1adde5
	// replicaKeys is how many keys a standalone replica holds, about as
	// many as one or two live vBuckets do. The live rungs see the op
	// stream's own keys; a standalone rung folds the key onto this
	// range (key mod replicaKeys), so its hash table and file stay the
	// size of a live vBucket's instead of the whole bucket's.
	replicaKeys = 2048
	// durabilityProbeEvery: one write in N on a durable workload is
	// followed by the three-way durability probe (plain, ReplicateTo,
	// PersistTo), which costs three more round trips.
	durabilityProbeEvery = 4
)

// replicas are the standalone layer instances of the lower rungs.
type replicas struct {
	vb       *vbucket.VBucket
	vbFile   *storage.VBFile
	table    *cache.HashTable
	syncFile *storage.VBFile // durable workloads: one-record Append + fsync
	indexer  *gsi.Indexer    // query workload
}

func (r *replicas) close() {
	if r.vb != nil {
		r.vb.Close()
		r.vbFile.Close()
	}
	if r.syncFile != nil {
		r.syncFile.Close()
	}
	if r.indexer != nil {
		r.indexer.Close()
	}
}

// buildReplicas loads fresh standalone layers with replicaKeys records.
func buildReplicas(e *env, seed uint64, dir string) (*replicas, error) {
	ctx := context.Background()
	now := time.Now().Unix()
	r := &replicas{table: cache.NewHashTable()}
	var err error
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.vbFile, err = storage.Open(filepath.Join(dir, "ladder-vb.couch"), false); err != nil {
		return nil, err
	}
	r.vb = vbucket.New(0, r.vbFile, vbucket.Active, vbucket.Config{})
	for i := int64(0); i < replicaKeys; i++ {
		key, value := keyName(i), buildRecord(loadValueSeed(seed, i))
		if _, err = r.vb.Set(ctx, key, value, 0, 0, 0, now); err != nil {
			return nil, err
		}
		if _, err = r.table.Set(ctx, key, value, 0, 0, 0, now); err != nil {
			return nil, err
		}
	}
	if err = r.vb.DrainDisk(30 * time.Second); err != nil {
		return nil, fmt.Errorf("standalone vbucket: %w", err)
	}
	if e.w.sync {
		if r.syncFile, err = storage.Open(filepath.Join(dir, "ladder-sync.couch"), true); err != nil {
			return nil, err
		}
	}
	if e.w.query {
		r.indexer, err = gsi.NewStandaloneIndexer(gsi.Def{
			Name: "#primary", Keyspace: bucketName, IsPrimary: true, Mode: gsi.MemoryOptimized,
		}, "")
		if err != nil {
			return nil, err
		}
		for i := int64(0); i < e.w.mix.Records; i++ {
			id := keyName(i)
			r.indexer.Apply(gsi.KeyVersion{
				Index: "#primary", VB: cmap.VBucketID(id, numVBuckets), Seqno: uint64(i + 1),
				DocID: id, Entries: [][]any{{id}},
			})
		}
	}
	return r, nil
}

// ladderRun is the traced pass's raw outcome.
type ladderRun struct {
	tr       tracer
	ops      int
	elapsed  time.Duration
	failed   int64
	firstErr error
	examined int64 // index entries scanned by live queries
	rows     int64 // rows those queries returned
}

// climb is one op part-way down the ladder: its live rungs are done,
// its standalone rungs are still to come.
type climb struct {
	o     op
	id    int
	key   string
	value []byte
	// below is the span the standalone vBucket rung hangs under: the
	// round trip on a wire workload, the client call otherwise.
	below int
	// parseParent and scanParent are the executor phases of a query.
	parseParent, scanParent int
}

// ladderChunk ops climb the live rungs back to back, exactly as an
// untraced closed-loop client issues them, before the same ops climb
// the standalone rungs. Interleaving the two per op would space the
// live calls out and halve the load on the cluster.
const ladderChunk = 64

// runLadder climbs the ops of one client's stream for d, on one
// goroutine.
func runLadder(e *env, r *replicas, stream *opStream, d time.Duration) *ladderRun {
	lr := &ladderRun{tr: tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}}
	ctx := context.Background()
	note := func(c climb, err error) bool {
		if err == nil {
			return true
		}
		lr.failed++
		if lr.firstErr == nil {
			lr.firstErr = fmt.Errorf("ladder op %d (%s key %d): %w", c.id, c.o.Kind, c.o.Key, err)
		}
		return false
	}
	chunk := make([]climb, 0, ladderChunk)
	for time.Since(lr.tr.t0) < d {
		chunk = chunk[:0]
		for i := 0; i < ladderChunk; i++ {
			c := climb{o: stream.next(), id: lr.ops}
			lr.ops++
			if note(c, lr.liveRungs(ctx, e, &c)) {
				chunk = append(chunk, c)
			}
		}
		for _, c := range chunk {
			note(c, lr.standaloneRungs(ctx, e, r, c))
		}
	}
	lr.elapsed = time.Since(lr.tr.t0)
	return lr
}

// liveRungs times the op against the live cluster.
func (lr *ladderRun) liveRungs(ctx context.Context, e *env, c *climb) error {
	if c.o.Kind == opRead && e.w.query {
		return lr.liveQuery(e, c)
	}
	tr, id, kind := &lr.tr, c.id, c.o.Kind
	now := time.Now().Unix()
	c.key = keyName(c.o.Key)
	if c.o.Private {
		c.key = privateKeyName(0, c.o.Key) // the traced goroutine is client 0
	}
	if kind == opWrite {
		c.value = buildRecord(c.o.ValueSeed)
	}
	key, value := c.key, c.value

	// Rung 1 is the live cluster through core.Client. Rung 2, on a
	// wire workload, is the same request as one frame on the pooled
	// connection: below the router, the client and the item decoding.
	// Of two socket operations in a row the second finds the scheduler
	// and the server's goroutines warm and is some 10 µs faster, so the
	// two rungs swap places on every other op; the medians then see
	// both positions equally, and their difference is core's own time.
	root := tr.alloc(rungClient, -1, id, kind)
	live := func() error {
		var err error
		tr.start(root)
		if kind == opRead {
			_, err = e.client.Get(ctx, key)
		} else {
			_, err = e.client.SetWithOptions(ctx, key, value, 0, 0, 0, e.w.durable)
		}
		tr.end(root)
		return err
	}
	c.below = root
	if e.wc == nil {
		return live()
	}
	rt := tr.alloc(rungRoundtrip, root, id, kind)
	var resp *memcproto.Frame
	wire := func() (err error) {
		resp, err = lr.roundtrip(ctx, e, rt, kind, key, value, now)
		return err
	}
	first, second := live, wire
	if id%2 == 1 {
		first, second = wire, live
	}
	if err := first(); err != nil {
		return err
	}
	if err := second(); err != nil {
		return err
	}
	c.below = rt
	// Beside the round trip, the codec alone: what encoding and
	// decoding the request and its response cost both ends.
	req := requestFrame(e, kind, key, value, now)
	codec := tr.begin(rungCodec, root, id, kind)
	err := codecRoundTrip(req, resp)
	tr.end(codec)
	if err != nil {
		return err
	}
	if kind == opWrite && e.w.durable != (core.DurabilityOptions{}) && id%durabilityProbeEvery == 0 {
		return lr.durabilityProbe(ctx, e, id, key, value)
	}
	return nil
}

// standaloneRungs times the same op on the standalone replicas.
func (lr *ladderRun) standaloneRungs(ctx context.Context, e *env, r *replicas, c climb) error {
	if c.o.Kind == opRead && e.w.query {
		return lr.standaloneQuery(r, c)
	}
	tr, id, kind, value := &lr.tr, c.id, c.o.Kind, c.value
	now := time.Now().Unix()
	key := c.key
	if !c.o.Private {
		key = keyName(c.o.Key % replicaKeys)
	}
	var err error

	// Rung 3: a standalone vBucket (cache + disk queue + DCP publish).
	// On the quota-bound workload the value is evicted first, so the
	// read takes the miss path most live reads take there.
	if kind == opRead && e.w.quotaShare > 0 {
		// Only a persisted value may go: the miss path reads it back
		// from the standalone file.
		if it, err := r.vb.Table.GetMeta(key); err == nil && it.Seqno <= r.vb.PersistedSeqno() {
			r.vb.Table.EvictValue(key)
		}
	}
	vb := tr.begin(rungVBucket, c.below, id, kind)
	if kind == opRead {
		_, err = r.vb.Get(ctx, key, now)
	} else {
		_, err = r.vb.Set(ctx, key, value, 0, 0, 0, now)
	}
	tr.end(vb)
	if err != nil {
		return fmt.Errorf("standalone vbucket: %w", err)
	}

	// Rung 4: a bare hash table, no observer attached.
	ch := tr.begin(rungCache, vb, id, kind)
	if kind == opRead {
		_, err = r.table.Get(key, now)
	} else {
		_, err = r.table.Set(ctx, key, value, 0, 0, 0, now)
	}
	tr.end(ch)
	if err != nil {
		return fmt.Errorf("standalone cache: %w", err)
	}

	// Rung 5: storage, only where it blocks the op. A miss's background
	// fetch happens inside vbucket.Get; a durable write's synced append
	// happens in the flusher while the server holds the ack, so it
	// hangs under the round trip, beside the vBucket.
	switch {
	case kind == opRead && e.w.quotaShare > 0:
		s := tr.begin(rungStorage, vb, id, kind)
		_, err = r.vbFile.Get(key)
		tr.end(s)
	case kind == opWrite && e.w.durable.PersistTo:
		rec := []storage.Record{{Meta: storage.Meta{Key: key, Seqno: uint64(id + 1), CAS: 1}, Value: value}}
		s := tr.begin(rungStorage, c.below, id, kind)
		err = r.syncFile.Append(rec)
		tr.end(s)
	}
	if err != nil {
		return fmt.Errorf("standalone storage: %w", err)
	}
	return nil
}

// requestFrame builds the request frame core's wire client would send.
func requestFrame(e *env, kind opKind, key string, value []byte, now int64) *memcproto.Frame {
	f := &memcproto.Frame{
		Magic: memcproto.MagicReq, Opcode: memcproto.OpGet,
		VBucket: uint16(cmap.VBucketID(key, numVBuckets)),
		Extras:  memcproto.AppendUint64(nil, uint64(now)), Key: []byte(key),
	}
	if kind == opWrite {
		f.Opcode, f.Value = memcproto.OpSet, value
		f.Extras = append(f.Extras, memcproto.MutateExtras{
			ReplicateTo: uint8(e.w.durable.ReplicateTo), Persist: e.w.durable.PersistTo,
		}.Encode()...)
	}
	return f
}

// roundtrip sends the request frame to the vBucket's active server and
// times it as span sp.
func (lr *ladderRun) roundtrip(ctx context.Context, e *env, sp int, kind opKind, key string, value []byte, now int64) (*memcproto.Frame, error) {
	m, err := e.wc.router.BucketMap()
	if err != nil {
		return nil, err
	}
	node, _ := m.NodeForKey(key)
	conn, err := e.wc.pool.Get(string(node))
	if err != nil {
		return nil, err
	}
	req := requestFrame(e, kind, key, value, now)
	lr.tr.start(sp)
	resp, err := conn.Roundtrip(ctx, req)
	lr.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if resp.Status != memcproto.StatusOK {
		return nil, fmt.Errorf("roundtrip: status %s", resp.Status)
	}
	return resp, nil
}

// codecRoundTrip encodes and decodes a request and a response once
// each: the codec work one op costs the client and the server together.
func codecRoundTrip(req, resp *memcproto.Frame) error {
	for _, f := range []*memcproto.Frame{req, resp} {
		b, err := f.Append(nil)
		if err != nil {
			return err
		}
		if _, _, err := memcproto.Decode(b); err != nil {
			return err
		}
	}
	return nil
}

// durabilityProbe times the same write three more ways on the live
// cluster: plain, waiting for one replica, waiting for persistence. The
// differences are what replication and the fsync each add to an ack.
func (lr *ladderRun) durabilityProbe(ctx context.Context, e *env, id int, key string, value []byte) error {
	for _, p := range []struct {
		rung rung
		dur  core.DurabilityOptions
	}{
		{rungProbePlain, core.DurabilityOptions{}},
		{rungProbeReplicate, core.DurabilityOptions{ReplicateTo: 1}},
		{rungProbePersist, core.DurabilityOptions{PersistTo: true}},
	} {
		sp := lr.tr.begin(p.rung, -1, id, opWrite)
		_, err := e.client.SetWithOptions(ctx, key, value, 0, 0, 0, p.dur)
		lr.tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", p.rung, err)
		}
	}
	return nil
}

// liveQuery times one range query on the live cluster, with the
// executor's phase timings as child spans.
func (lr *ladderRun) liveQuery(e *env, c *climb) error {
	tr, id := &lr.tr, c.id
	c.key = keyName(c.o.Key)
	root := tr.begin(rungQuery, -1, id, opRead)
	res, err := e.cluster.Query(scanStatement, executor.Options{
		Params: map[string]any{"1": c.key, "2": float64(c.o.Limit)}, Prof: executor.NewProfile(),
	})
	tr.end(root)
	if err != nil {
		return err
	}
	lr.rows += int64(len(res.Rows))
	c.parseParent, c.scanParent = root, root
	at := tr.spans[root].Start
	for _, ph := range res.Profile {
		r, ok := phaseRung(ph.Operator)
		if !ok {
			continue // a phase this harness does not know: left in core.query's self time
		}
		sp := tr.add(r, root, id, opRead, at, ph.Elapsed)
		at += int64(ph.Elapsed)
		switch ph.Operator {
		case "parse":
			c.parseParent = sp
		case "scan":
			c.scanParent = sp
			lr.examined += int64(ph.Items)
		case "fetch":
			lr.examined += int64(ph.Items)
		}
	}
	return nil
}

// standaloneQuery times n1ql.Parse and a standalone gsi.Indexer.Scan
// under the executor phases they belong to.
func (lr *ladderRun) standaloneQuery(r *replicas, c climb) error {
	tr, id := &lr.tr, c.id
	sp := tr.begin(rungParse, c.parseParent, id, opRead)
	_, err := n1ql.Parse(scanStatement)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(rungScan, c.scanParent, id, opRead)
	items, err := r.indexer.Scan(context.Background(), gsi.ScanOptions{
		Low: []any{c.key}, LowIncl: true, Limit: c.o.Limit,
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	if len(items) > c.o.Limit {
		return fmt.Errorf("standalone index scan returned %d items for LIMIT %d", len(items), c.o.Limit)
	}
	return nil
}

// --- aggregation ---

// ladderStats is the trace aggregated once: the median duration and
// count of every (rung, kind), and which rungs each rung is parent of.
type ladderStats struct {
	median   [][numKinds]float64
	count    [][numKinds]int
	children [][]rung
}

func (lr *ladderRun) stats() *ladderStats {
	n := len(rungNames)
	st := &ladderStats{
		median: make([][numKinds]float64, n), count: make([][numKinds]int, n), children: make([][]rung, n),
	}
	durations := make([][numKinds][]float64, n)
	isChild := make([][]bool, n)
	for i := range isChild {
		isChild[i] = make([]bool, n)
	}
	for i := range lr.tr.spans {
		s := &lr.tr.spans[i]
		durations[s.Rung][s.Kind] = append(durations[s.Rung][s.Kind], float64(s.End-s.Start))
		if s.Parent >= 0 {
			if p := lr.tr.spans[s.Parent].Rung; !isChild[p][s.Rung] {
				isChild[p][s.Rung] = true
				st.children[p] = append(st.children[p], s.Rung)
			}
		}
	}
	for r := range durations {
		for k, vs := range durations[r] {
			sort.Float64s(vs)
			st.median[r][k], st.count[r][k] = median(vs), len(vs)
		}
	}
	return st
}

// med is the median duration in ns of the spans of this rung and kind,
// and how many there are.
func (st *ladderStats) med(r rung, kind opKind) (float64, int) {
	return st.median[r][kind], st.count[r][kind]
}

// self is a rung's self time for one op kind: its median minus its
// children's medians, a child that only some ops have counting in
// proportion. Medians are subtracted, not per-op differences, because
// the wire rungs alternate their order (see liveRungs).
func (st *ladderStats) self(r rung, kind opKind) (float64, int) {
	m, n := st.med(r, kind)
	if n == 0 {
		return 0, 0
	}
	for _, child := range st.children[r] {
		cm, cn := st.med(child, kind)
		m -= cm * float64(cn) / float64(n)
	}
	return m, n
}

// overKinds combines a per-kind figure into one, weighted by count.
func overKinds(f func(opKind) (float64, int), div float64, unit string) stat {
	sum, n := 0.0, 0
	for _, kind := range []opKind{opRead, opWrite} {
		v, c := f(kind)
		sum += v * float64(c)
		n += c
	}
	return stat{Value: ratio(sum, float64(n)) / div, Unit: unit, Samples: uint64(n)}
}

// kindStat is the median of one rung for one op kind.
func (st *ladderStats) kindStat(r rung, kind opKind, div float64, unit string) stat {
	v, n := st.med(r, kind)
	return stat{Value: v / div, Unit: unit, Samples: uint64(n)}
}

func (st *ladderStats) medStat(r rung, div float64, unit string) stat {
	return overKinds(func(k opKind) (float64, int) { return st.med(r, k) }, div, unit)
}

func (st *ladderStats) selfStat(r rung, div float64, unit string) stat {
	return overKinds(func(k opKind) (float64, int) { return st.self(r, k) }, div, unit)
}

// selfTable is the self time of every rung, per op kind, in
// microseconds: the per-module decomposition of one op.
func (st *ladderStats) selfTable() map[string]map[string]stat {
	out := map[string]map[string]stat{}
	for r, name := range rungNames {
		for _, kind := range []opKind{opRead, opWrite} {
			if v, n := st.self(rung(r), kind); n > 0 {
				if out[name] == nil {
					out[name] = map[string]stat{}
				}
				out[name][kind.String()] = stat{Value: v / 1e3, Unit: "us", Samples: uint64(n)}
			}
		}
	}
	return out
}

// measureLayers is the --trace 1 run: an untraced window whose only
// instrumentation is reading the program's existing counters before and
// after, then the ladder.
func measureLayers(cfg runConfig, w workload, runDir string, res *result) error {
	_, err := withCluster(cfg, w, filepath.Join(runDir, "setup"), res, func(e *env) error {
		return measureLayersOn(cfg, e, res)
	})
	return err
}

func measureLayersOn(cfg runConfig, e *env, res *result) error {
	total := time.Duration(cfg.seconds) * time.Second
	window := total / 2
	L := res.Layers
	units := map[string]string{}
	for _, d := range layerDefs {
		units[d.name] = d.unit
		L[d.name] = stat{Unit: d.unit}
	}

	// Part 1: counters over an untraced closed-loop window.
	before, err := e.scrape()
	if err != nil {
		return err
	}
	cliBefore := localCounters()
	cpu0, err := cpuSeconds(e.pids())
	if err != nil {
		return err
	}
	mallocs0 := mallocs()
	depth := startDepthSampler(e)
	run := runClients(e, cfg.seed, window, windowsFor(window), 0)
	maxDepth := depth.stop()
	mallocs1 := mallocs()
	cpu1, err := cpuSeconds(e.pids())
	if err != nil {
		return err
	}
	after, err := e.scrape()
	if err != nil {
		return err
	}
	d, cli := after.sub(before), localCounters().sub(cliBefore)
	res.addRun(run)
	ops, secs := float64(run.succeeded()), run.elapsed.Seconds()

	set := func(name string, v float64) { L[name] = stat{Value: v, Unit: units[name]} }
	hits, misses, bg := d["couchgo_cache_hits_total"], d["couchgo_cache_misses_total"], d["couchgo_cache_bgfetches_total"]
	set("cache.hit_ratio", ratio(hits, hits+misses+bg))
	set("cache.bgfetches_per_op", ratio(bg, ops))
	set("cache.evictions_per_s", d.sumFamily("couchgo_cache_evictions_total")/secs)
	set("cache.evict_races", float64(run.evictRaces()))
	set("vbucket.flusher_batch_items", d.histMean("couchgo_flusher_batch_items"))
	set("vbucket.queue_depth_max", maxDepth)
	set("storage.write_amp", ratio(d["couchgo_storage_bytes_written_total"], float64(run.userBytes())))
	set("storage.appends_per_fsync", d.histMean("couchgo_storage_group_commit_coalesced_appends"))
	set("storage.fsync_p50_us", d.histQuantile("couchgo_storage_fsync_duration_seconds", 0.5)*1e6)
	set("storage.compactions", d["couchgo_storage_compactions_total"])
	if e.wc != nil {
		set("transport.frames_per_syscall", cli.histMean("couchgo_transport_frames_per_syscall"))
		set("transport.bytes_per_op", ratio(cli.sumFamily("couchgo_transport_bytes_total"), ops))
	}
	set("proc.cpu_us_per_op", ratio((cpu1-cpu0)*1e6, ops))
	set("proc.allocs_per_op", ratio(float64(mallocs1-mallocs0), ops))
	set("info.error_rate", ratio(float64(run.failed()), float64(run.attempted())))
	for kind, name := range map[opKind]string{opRead: "info.read_p99_us", opWrite: "info.write_p99_us"} {
		if s, ok := run.latency(kind, 0.99); ok {
			L[name] = s
		}
	}
	if err := res.check(e, run, false); err != nil {
		return err
	}

	// Part 2: the ladder. The traced goroutine takes the place of
	// client 0 and the other clients keep running untraced, so the
	// cluster is as busy as it was in the untraced window.
	rep, err := buildReplicas(e, cfg.seed, e.dir)
	if err != nil {
		return fmt.Errorf("ladder replicas: %w", err)
	}
	defer rep.close()
	others := make(chan *runResult, 1)
	go func() { others <- runClients(e, cfg.seed^ladderSalt, total-window, 0, 1) }()
	lr := runLadder(e, rep, newOpStream(e.w.mix, cfg.seed^ladderSalt, 0, numClients), total-window)
	companions := <-others
	res.addRun(companions)
	res.Attempted += int64(lr.ops)
	res.Failed += lr.failed
	if lr.failed > 0 {
		res.fail("%d of %d ladder operations failed; first: %v", lr.failed, lr.ops, lr.firstErr)
	}
	if n := companions.failed(); n > 0 {
		res.fail("%d operations of the ladder's companion clients failed; first: %v", n, companions.firstError())
	}

	st := lr.stats()
	L["cache.get_ns"] = st.kindStat(rungCache, opRead, 1, "ns")
	L["cache.set_ns"] = st.kindStat(rungCache, opWrite, 1, "ns")
	L["vbucket.self_ns"] = st.selfStat(rungVBucket, 1, "ns")
	L["storage.get_us"] = st.kindStat(rungStorage, opRead, 1e3, "us")
	L["memcproto.codec_ns"] = st.medStat(rungCodec, 1, "ns")
	L["transport.roundtrip_us"] = st.medStat(rungRoundtrip, 1e3, "us")
	L["core.self_us"] = st.selfStat(rungClient, 1e3, "us")
	L["n1ql.parse_us"] = st.medStat(rungParse, 1e3, "us")
	L["planner.plan_us"] = st.medStat(phase("plan"), 1e3, "us")
	L["gsi.scan_us"] = st.medStat(rungScan, 1e3, "us")
	L["executor.fetch_us"] = st.medStat(phase("fetch"), 1e3, "us")
	if whole, n := st.med(rungQuery, opRead); n > 0 {
		// The whole minus the parse, plan, scan and fetch phases:
		// projection, row assembly and engine glue.
		for _, ph := range []string{"parse", "plan", "scan", "fetch"} {
			m, c := st.med(phase(ph), opRead)
			whole -= m * float64(c) / float64(n)
		}
		L["executor.other_us"] = stat{Value: whole / 1e3, Unit: "us", Samples: uint64(n)}
	}
	set("query.rows_examined_per_row", ratio(float64(lr.examined), float64(lr.rows)))
	if plain, n := st.med(rungProbePlain, opWrite); n > 0 {
		repl, _ := st.med(rungProbeReplicate, opWrite)
		pers, _ := st.med(rungProbePersist, opWrite)
		L["dcp.replicate_wait_us"] = stat{Value: (repl - plain) / 1e3, Unit: "us", Samples: uint64(n)}
		L["storage.persist_wait_us"] = stat{Value: (pers - plain) / 1e3, Unit: "us", Samples: uint64(n)}
	}

	// How the traced op relates to the untraced one of this same run.
	// The rungs' self times telescope to the root's median, so their
	// sum over the untraced p50 is this ratio, kind by kind.
	whole := func(k opKind) (float64, int) {
		if k == opRead && e.w.query {
			return st.med(rungQuery, k)
		}
		return st.med(rungClient, k)
	}
	L["ladder.whole_p50_us"] = overKinds(whole, 1e3, "us")
	untraced := overKinds(func(k opKind) (float64, int) {
		u, _ := run.merged(k, 0, run.windows).quantile(0.5)
		_, n := whole(k)
		return u, n
	}, 1e3, "us")
	set("ladder.self_sum_share", ratio(L["ladder.whole_p50_us"].Value, untraced.Value))
	// Traced ÷ untraced throughput of one client: what climbing the
	// standalone rungs and recording spans costs.
	set("ladder.trace_overhead", ratio(float64(lr.ops)/lr.elapsed.Seconds(), run.throughput().Value/numClients))
	res.LadderSelf = st.selfTable()

	tracePath := filepath.Join(outDir, "trace-"+e.w.name+".json")
	if err := writeJSON(tracePath, map[string]any{
		"workload": e.w.name, "seed": cfg.seed, "ops": lr.ops,
		"elapsed_ns": int64(lr.elapsed), "spans_recorded": len(lr.tr.spans), "spans": lr.tr.forFile(),
	}); err != nil {
		return err
	}
	res.Notes = append(res.Notes, "trace written to "+tracePath)
	return nil
}
