package executor

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/gsi"
	"couchgo/internal/n1ql"
	"couchgo/internal/planner"
	"couchgo/internal/value"
)

// A row is its slots: the value of every name in the plan's scope, cut
// from the execution's arena, which the executor keeps, cleared, for the
// next execution it is pooled for. The plan binds a slot for everything
// a row carries (planner.SelectPlan): the scan writes the cover slots,
// or the document ID into the row's metadata for Fetch to read; Project
// writes the result value to Out and the sort keys to SortKeys. An
// operator that drops rows compacts its batch in place.

// noLimit is the demand of a consumer that needs every row.
const noLimit = math.MaxInt

// maxBatch caps a batch, and with it an index scan page, however many
// rows are wanted.
const maxBatch = 1024

// operator is one stage of the pipeline. next returns the stage's next
// batch, pulling on its upstream only as far as that takes. want is the
// number of rows the consumer still needs: a hint that sizes the batch,
// which may come out shorter or longer. An empty batch means the stage
// is exhausted. The batch belongs to the caller.
type operator interface {
	next(want int) ([][]any, error)
}

// drain pulls op dry.
func drain(op operator) ([][]any, error) {
	var all [][]any
	for {
		batch, err := op.next(noLimit)
		if err != nil {
			return nil, err
		}
		switch {
		case len(batch) == 0:
			return all, nil
		case all == nil:
			all = batch
		default:
			all = append(all, batch...)
		}
	}
}

// stage runs one of the executor's row functions over its upstream. A
// streaming stage hands each upstream batch through fn, demand passing
// through unchanged, and pulls again while fn drops a whole batch, so
// only a dry upstream makes it return empty. A blocking stage (GROUP
// BY, a Sort the index does not deliver) needs every upstream row
// before its first output, which it hands over as one batch.
type stage struct {
	ex       *selectExec
	up       operator
	fn       func(*selectExec, [][]any) ([][]any, error)
	blocking bool
	done     bool
}

func (s *stage) next(want int) ([][]any, error) {
	if s.blocking {
		if s.done {
			return nil, nil
		}
		s.done = true
		all, err := drain(s.up)
		if err != nil {
			return nil, err
		}
		return s.fn(s.ex, all)
	}
	for {
		in, err := s.up.next(want)
		if err != nil || len(in) == 0 {
			return nil, err
		}
		out, err := s.fn(s.ex, in)
		if err != nil || len(out) > 0 {
			return out, err
		}
	}
}

// limitOp is Offset + Limit, the origin of demand: it asks upstream for
// exactly the rows it still has to skip and return, and stops asking
// once it has them.
type limitOp struct {
	up           operator
	skip, remain int // remain is noLimit without a LIMIT clause
}

func (l *limitOp) next(int) ([][]any, error) {
	for l.remain > 0 {
		want := noLimit
		if l.remain < noLimit-l.skip {
			want = l.skip + l.remain
		}
		rows, err := l.up.next(want)
		if err != nil || len(rows) == 0 {
			return nil, err
		}
		n := min(l.skip, len(rows))
		l.skip -= n
		rows = rows[n:]
		if len(rows) > l.remain {
			rows = rows[:l.remain]
		}
		l.remain -= len(rows)
		if len(rows) > 0 {
			return rows, nil
		}
	}
	return nil, nil
}

// phase times one operator for the profile: busy is the time spent in
// its next, upstream included, so an operator's self time is its busy
// minus its upstream's. A stream or barrier phase's operator is its own
// stage.
type phase struct {
	name  string
	op    operator
	stage stage
	busy  time.Duration
	items int
}

func (ph *phase) next(want int) ([][]any, error) {
	t0 := time.Now()
	rows, err := ph.op.next(want)
	ph.busy += time.Since(t0)
	ph.items += len(rows)
	return rows, err
}

// ExecuteSelect runs a planned SELECT and returns the result values
// (one JSON value per row).
func ExecuteSelect(p *planner.SelectPlan, ds Datastore, opts Options) ([]any, error) {
	ex := newExec(p, ds, opts)
	defer ex.free()
	rows, err := ex.run()
	if err != nil {
		return nil, err
	}
	out := make([]any, len(rows))
	for i, r := range rows {
		out[i] = r[p.Out]
	}
	return out, nil
}

// maxPhases is the most operators a pipeline has: scan, fetch, join,
// unnest, filter, group, project and sort.
const maxPhases = 8

type selectExec struct {
	p    *planner.SelectPlan
	ds   Datastore
	opts Options

	// ctx is the execution's one evaluation context, its parameters
	// bound once; at points it at a row. width is the slots a row has,
	// and consts the row with no name bound that LIMIT, OFFSET, USE KEYS
	// and span bounds read. The operators that make rows, consts and the
	// span's bounds are cut from arena.
	ctx    n1ql.Context
	width  int
	consts []any
	arena  arena

	top     operator
	scan    scanOp
	phases  [maxPhases]phase
	nphases int
	limit   limitOp

	// matchers are the join terms' ways of finding an outer row's inner
	// matches, settled at the first batch; seen are the projections a
	// DISTINCT has passed.
	matchers []func([]any) ([]ScannedDoc, error)
	seen     map[string]bool
}

// execs are executors that finished an execution, each keeping its
// context and arena, cleared, for the next one.
var execs sync.Pool

// newExec takes an executor from the pool, or makes the pool's first,
// for one execution of p.
func newExec(p *planner.SelectPlan, ds Datastore, opts Options) *selectExec {
	ex, _ := execs.Get().(*selectExec)
	if ex == nil {
		ex = new(selectExec)
	}
	ex.p, ex.ds, ex.opts = p, ds, opts
	return ex
}

// free hands ex back to the pool once nothing reads its rows: the
// caller has copied out each row's answer, so the arena and the context
// are cleared and pin no document, key or map.
func (ex *selectExec) free() {
	ex.scan.release()
	ex.arena.reset()
	ex.ctx.Unbind()
	*ex = selectExec{ctx: ex.ctx, arena: ex.arena}
	execs.Put(ex)
}

// arena hands out the slots, row headers and metadata of an execution's
// rows, from chunks of at most maxBatch rows: when a batch no longer
// fits, the next chunk starts and the last is left to the rows cut from
// it, so a long scan whose filter drops rows does not keep them all
// reachable. A run longer than maxBatch rows (the groups of a large GROUP
// BY, an UNNEST of a long array) gets a chunk of its own, left to the GC
// as a large scan page is (scanOp.release).
type arena struct {
	slots slab[any]
	rows  slab[[]any]
	metas slab[n1ql.Meta]
}

// size sets the chunk limits for rows of width slots.
func (a *arena) size(width int) {
	a.slots.limit, a.rows.limit, a.metas.limit = maxBatch*width, maxBatch, maxBatch
}

// reset clears what the execution took.
func (a *arena) reset() {
	a.slots.reset()
	a.rows.reset()
	a.metas.reset()
}

// slab cuts runs from one chunk, which doubles from the first run up to
// limit.
type slab[T any] struct {
	chunk []T
	used  int
	limit int
}

// take returns a zeroed run of n, with no room to append into the next.
func (s *slab[T]) take(n int) []T {
	if s.used+n > len(s.chunk) {
		s.chunk, s.used = make([]T, max(n, min(2*len(s.chunk), s.limit))), 0
	}
	run := s.chunk[s.used : s.used+n : s.used+n]
	s.used += n
	return run
}

// reset zeroes what was taken, and drops a chunk past limit.
func (s *slab[T]) reset() {
	if len(s.chunk) > s.limit {
		s.chunk = nil
	} else {
		clear(s.chunk[:s.used])
	}
	s.used = 0
}

func (ex *selectExec) at(slots []any) *n1ql.Context {
	ex.ctx.Slots = slots
	return &ex.ctx
}

// blank returns a row in which every name is unbound.
func (ex *selectExec) blank() []any {
	slots := ex.arena.slots.take(ex.width)
	for i := range slots {
		slots[i] = value.Missing
	}
	return slots
}

// fan appends n copies of r to out, the first r itself and the rest
// fresh slots, for an operator that turns one row into n.
func (ex *selectExec) fan(out [][]any, r []any, n int) [][]any {
	out = append(out, r)
	w := len(r)
	slab := ex.arena.slots.take((n - 1) * w)
	for ; n > 1; n-- {
		c := slab[:w:w]
		slab = slab[w:]
		copy(c, r)
		out = append(out, c)
	}
	return out
}

// add appends an operator, timed under name, to the pipeline.
func (ex *selectExec) add(name string, op operator) *phase {
	ph := &ex.phases[ex.nphases]
	ex.nphases++
	*ph = phase{name: name, op: op}
	ex.top = ph
	return ph
}

// addStage appends a stage running fn, streaming or blocking.
func (ex *selectExec) addStage(name string, fn func(*selectExec, [][]any) ([][]any, error), blocking bool) {
	up := ex.top
	ph := ex.add(name, nil)
	ph.stage = stage{ex: ex, up: up, fn: fn, blocking: blocking}
	ph.op = &ph.stage
}

// run assembles the pipeline the plan describes, pulls the rows LIMIT
// and OFFSET ask for through it, and reports each operator once.
func (ex *selectExec) run() ([][]any, error) {
	p := ex.p
	ex.width = p.Scope.Len()
	ex.arena.size(ex.width)
	ex.ctx.BindParams(p.Scope, ex.opts.Params)
	ex.consts = ex.blank()
	limit, offset, err := ex.limitOffset()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := ex.addScan(); err != nil {
		return nil, err
	}
	if p.Fetch {
		ex.addStage("fetch", (*selectExec).fetch, false)
	}
	if len(p.Joins) > 0 {
		ex.addStage("join", (*selectExec).join, false)
	}
	if len(p.Unnests) > 0 {
		ex.addStage("unnest", (*selectExec).unnest, false)
	}
	if p.Where != nil {
		ex.addStage("filter", (*selectExec).where, false)
	}
	if len(p.GroupBy) > 0 || len(p.Aggregates) > 0 {
		ex.addStage("group", (*selectExec).group, true)
	}
	if p.Distinct {
		ex.seen = map[string]bool{}
	}
	ex.addStage("project", (*selectExec).project, false)
	if len(p.SortKeys) > 0 {
		ex.addStage("sort", (*selectExec).sort, true)
	}
	if limit < 0 {
		limit = noLimit
	}
	ex.limit = limitOp{up: ex.top, skip: offset, remain: limit}
	rows, err := drain(&ex.limit)
	if err != nil {
		return nil, err
	}
	if p.Scan != nil {
		ex.phases[0].items = ex.scan.examined
	}
	var upstream time.Duration
	for _, ph := range ex.phases[:ex.nphases] {
		self := ph.busy - upstream
		upstream = ph.busy
		ex.opts.Record(ph.name, start, self, ph.items)
		start = start.Add(self)
	}
	return rows, nil
}

// limitOffset evaluates LIMIT/OFFSET expressions (-1 = no limit).
func (ex *selectExec) limitOffset() (limit, offset int, err error) {
	limit = -1
	if ex.p.Limit != nil {
		v, err := n1ql.Eval(ex.p.Limit, ex.at(ex.consts))
		if err != nil {
			return 0, 0, err
		}
		f, ok := value.AsNumber(v)
		if !ok || f < 0 {
			return 0, 0, fmt.Errorf("executor: LIMIT must be a non-negative number, got %v", v)
		}
		limit = int(f)
	}
	if ex.p.Offset != nil {
		v, err := n1ql.Eval(ex.p.Offset, ex.at(ex.consts))
		if err != nil {
			return 0, 0, err
		}
		f, ok := value.AsNumber(v)
		if !ok || f < 0 {
			return 0, 0, fmt.Errorf("executor: OFFSET must be a non-negative number, got %v", v)
		}
		offset = int(f)
	}
	return limit, offset, nil
}

// rowsOp hands out fixed rows once.
type rowsOp struct{ rows [][]any }

func (o *rowsOp) next(int) ([][]any, error) {
	rows := o.rows
	o.rows = nil
	return rows, nil
}

// scanPages are the pages scans have read into and handed back, cleared,
// for the next execution's scan: a page is the datastore's to fill and
// the executor's to keep (Datastore.ScanIndex).
var scanPages = sync.Pool{New: func() any { return new([]gsi.ScanItem) }}

// scanOp is the access path. It turns index entries into rows a batch
// at a time and asks the datastore for a page only when its buffer has
// run dry, so a scan whose consumer stops asking stops reading the
// index. Covering plans get their row's slots here (§5.1.2: "covered
// queries ... deliver better performance" by skipping the fetch);
// others get the document ID in their metadata, for Fetch.
type scanOp struct {
	ex    *selectExec
	index string
	using n1ql.IndexUsing
	// opts carry the evaluated span and, between pages, the
	// continuation, after.
	opts  gsi.ScanOptions
	after gsi.ScanItem
	cover bool

	// page is the last page read, into a buffer from scanPages that goes
	// back when the execution ends; buf is what of it is not handed out.
	page     *[]gsi.ScanItem
	buf      []gsi.ScanItem
	more     bool // the span may continue after buf
	size     int  // the previous batch's size
	examined int  // entries the datastore returned
}

// next sizes its batch, and the page behind it, from demand: the rows
// still wanted, doubled on every repeat call (a consumer that comes
// back dropped rows of the last batch, so a selective filter costs a
// logarithmic number of pages), capped at maxBatch.
func (s *scanOp) next(want int) ([][]any, error) {
	s.size = min(max(want, 2*s.size), maxBatch)
	if len(s.buf) == 0 && s.more {
		if err := s.read(); err != nil {
			return nil, err
		}
	}
	n := min(s.size, len(s.buf))
	if n == 0 {
		return nil, nil
	}
	p, w, a := s.ex.p, s.ex.width, &s.ex.arena
	rows, slab := a.rows.take(n), a.slots.take(n*w)
	var metas []n1ql.Meta
	if !s.cover {
		metas = a.metas.take(n)
	}
	for i, e := range s.buf[:n] {
		r := slab[i*w : (i+1)*w : (i+1)*w]
		if s.cover {
			if p.CoverID >= 0 {
				r[p.CoverID] = e.DocID
			}
			for k, at := range p.Cover {
				if k < len(e.SecKey) {
					r[at] = e.SecKey[k]
				} else {
					r[at] = value.Missing
				}
			}
		} else {
			// Fetch fills the document in, or drops the row.
			metas[i].ID = e.DocID
			r[n1ql.DocSlot], r[n1ql.MetaSlot] = value.Missing, &metas[i]
		}
		rows[i] = r
	}
	s.buf = s.buf[n:]
	return rows, nil
}

// read asks the datastore for the span's next page of s.size entries,
// into the page the previous one came in.
func (s *scanOp) read() error {
	if s.page == nil {
		s.page = scanPages.Get().(*[]gsi.ScanItem)
	}
	clear(*s.page)
	opts := s.opts
	opts.Limit, opts.Page = s.size, (*s.page)[:0]
	page, more, err := s.ex.ds.ScanIndex(s.ex.opts.Context(), s.ex.p.Keyspace, s.index, s.using, opts)
	if err != nil {
		return err
	}
	*s.page = page
	s.buf, s.more = page, more && len(page) > 0
	s.examined += len(page)
	if s.more {
		s.after = page[len(page)-1]
		s.opts.After = &s.after
		s.opts.WaitSeqnos = nil // request_plus waits once
	}
	return nil
}

// release hands the page buffer back, cleared, once the execution ends.
func (s *scanOp) release() {
	if s.page == nil {
		return
	}
	if cap(*s.page) <= maxBatch {
		clear(*s.page)
		*s.page = (*s.page)[:0]
		scanPages.Put(s.page)
	}
	s.page = nil
}

// addScan starts the pipeline with the plan's access path.
func (ex *selectExec) addScan() error {
	p := ex.p
	sc := &ex.scan
	*sc = scanOp{ex: ex, cover: !p.Fetch}
	var span planner.Span
	switch scan := p.Scan.(type) {
	case nil:
		// FROM-less SELECT: one empty row.
		ex.top = &rowsOp{rows: [][]any{ex.blank()}}
		return nil
	case *planner.KeyScan:
		ids, err := ex.keyScanIDs(scan)
		if err != nil {
			return err
		}
		sc.buf = make([]gsi.ScanItem, len(ids))
		for i, id := range ids {
			sc.buf[i].DocID = id
		}
		sc.examined = len(ids)
	case *planner.IndexScan:
		sc.index, sc.using, span, sc.more = scan.Index, scan.Using, scan.Span, true
		sc.opts.Reverse = scan.Reverse
	case *planner.PrimaryScan:
		sc.index, sc.using, span, sc.more = scan.Index, scan.Using, scan.Span, true
	default:
		return fmt.Errorf("executor: unknown scan %T", p.Scan)
	}
	if sc.more {
		if err := ex.evalSpan(span, &sc.opts); err != nil {
			return err
		}
		if ex.opts.Consistency == RequestPlus {
			sc.opts.WaitSeqnos = ex.ds.ConsistencyVector(p.Keyspace)
		}
	}
	ex.add("scan", sc)
	return nil
}

func (ex *selectExec) keyScanIDs(scan *planner.KeyScan) ([]string, error) {
	v, err := n1ql.Eval(scan.Keys, ex.at(ex.consts))
	if err != nil {
		return nil, err
	}
	ids, ok := keyStrings(v)
	if !ok {
		return nil, fmt.Errorf("executor: USE KEYS requires a string or array of strings, got %s", value.KindOf(v))
	}
	return ids, nil
}

// keyStrings reads a key expression's value: one ID or an array of
// them, whose non-string elements are skipped.
func keyStrings(v any) (ids []string, ok bool) {
	switch t := v.(type) {
	case string:
		return []string{t}, true
	case []any:
		for _, el := range t {
			if s, ok := el.(string); ok {
				ids = append(ids, s)
			}
		}
		return ids, true
	}
	return nil, false
}

// evalSpan evaluates the span's constant bound expressions into opts.
func (ex *selectExec) evalSpan(span planner.Span, opts *gsi.ScanOptions) error {
	evalAll := func(es []n1ql.Expr) ([]any, error) {
		out := ex.arena.slots.take(len(es))
		for i, e := range es {
			v, err := n1ql.Eval(e, ex.at(ex.consts))
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var err error
	if span.Equal != nil {
		opts.EqualKey, err = evalAll(span.Equal)
		opts.HasEqual = true
		return err
	}
	if span.Low != nil {
		if opts.Low, err = evalAll(span.Low); err != nil {
			return err
		}
		opts.LowIncl = span.LowIncl
	}
	if span.High != nil {
		if opts.High, err = evalAll(span.High); err != nil {
			return err
		}
		opts.HighIncl = span.HighIncl
	}
	return nil
}

// fetchParallelism bounds the fetch worker pool.
const fetchParallelism = 8

// fetch is the parallel Fetch operator: it retrieves one batch's
// documents by the IDs the scan left in their rows' metadata, with at
// most fetchParallelism workers, preserving scan order. A missing
// document drops its row; any other failure fails the statement, since
// the row may well exist.
func (ex *selectExec) fetch(rows [][]any) ([][]any, error) {
	var failed atomic.Pointer[error]
	one := func(i int) {
		r := rows[i]
		meta := r[n1ql.MetaSlot].(*n1ql.Meta)
		doc, m, err := ex.ds.Fetch(ex.opts.Context(), ex.p.Keyspace, meta.ID)
		switch {
		case err == nil:
			r[n1ql.DocSlot], *meta = doc, m
		case !errors.Is(err, ErrNotFound):
			ferr := fmt.Errorf("executor: fetch %q: %w", meta.ID, err)
			failed.CompareAndSwap(nil, &ferr)
		}
	}
	if workers := min(fetchParallelism, len(rows)); workers == 1 {
		for i := range rows {
			one(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(len(rows)); i = next.Add(1) - 1 {
					one(int(i))
				}
			}()
		}
		wg.Wait()
	}
	if err := failed.Load(); err != nil {
		return nil, *err
	}
	out := rows[:0]
	for _, r := range rows {
		if !value.IsMissing(r[n1ql.DocSlot]) {
			out = append(out, r)
		}
	}
	return out, nil
}

// join is the Join/Nest operator over all of the plan's join terms.
// Each term's way of finding an outer row's inner matches is settled
// when the first batch arrives: the nested-loop key join of §4.5.3
// ("for each of the qualifying documents from [the outer keyspace], a
// KEYSCAN will occur on [the inner] based on the key in the [outer]
// document") or, for ON <cond>, the analytics join path.
func (ex *selectExec) join(rows [][]any) ([][]any, error) {
	for i, j := range ex.p.Joins {
		if i == len(ex.matchers) {
			m, err := ex.joinMatcher(j)
			if err != nil {
				return nil, err
			}
			ex.matchers = append(ex.matchers, m)
		}
		var out [][]any
		for _, r := range rows {
			matches, err := ex.matchers[i](r)
			if err != nil {
				return nil, err
			}
			out = ex.appendJoinRows(out, r, j, matches)
		}
		rows = out
	}
	return rows, nil
}

// keyMatches fetches the inner documents an outer row's ON KEYS names.
// A missing one is no match; any other failure fails the statement.
func (ex *selectExec) keyMatches(j planner.Join) func([]any) ([]ScannedDoc, error) {
	return func(slots []any) ([]ScannedDoc, error) {
		keysVal, err := n1ql.Eval(j.OnKeys, ex.at(slots))
		if err != nil {
			return nil, err
		}
		ids, _ := keyStrings(keysVal)
		var matches []ScannedDoc
		for _, id := range ids {
			doc, meta, err := ex.ds.Fetch(ex.opts.Context(), j.Keyspace, id)
			if errors.Is(err, ErrNotFound) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("executor: fetch %q from %s: %w", id, j.Keyspace, err)
			}
			matches = append(matches, ScannedDoc{ID: id, Doc: doc, Meta: meta})
		}
		return matches, nil
	}
}

// unnest flattens nested arrays: "a join operation between a parent
// and a child object containing a nested array ... the parent object is
// repeated for each child array item."
func (ex *selectExec) unnest(rows [][]any) ([][]any, error) {
	for _, u := range ex.p.Unnests {
		var out [][]any
		for _, r := range rows {
			v, err := n1ql.Eval(u.Expr, ex.at(r))
			if err != nil {
				return nil, err
			}
			arr, ok := v.([]any)
			if !ok || len(arr) == 0 {
				if u.Kind == n1ql.JoinLeftOuter {
					r[u.Slot] = value.Missing
					out = append(out, r)
				}
				continue
			}
			out = ex.fan(out, r, len(arr))
			for i, el := range arr {
				out[len(out)-len(arr)+i][u.Slot] = el
			}
		}
		rows = out
	}
	return rows, nil
}

// where is the Filter operator: the plan's residual WHERE.
func (ex *selectExec) where(rows [][]any) ([][]any, error) {
	return ex.filter(rows, ex.p.Where)
}

// filter keeps the rows cond holds for, in place.
func (ex *selectExec) filter(rows [][]any, cond n1ql.Expr) ([][]any, error) {
	out := rows[:0]
	for _, r := range rows {
		v, err := n1ql.Eval(cond, ex.at(r))
		if err != nil {
			return nil, err
		}
		if value.Truthy(v) {
			out = append(out, r)
		}
	}
	return out, nil
}

// group implements the Group operator: hash grouping on the GROUP BY
// keys with one Aggregator per aggregate call per group, then HAVING.
// A group's row is its first input row with the aggregate results
// written to their slots.
func (ex *selectExec) group(rows [][]any) ([][]any, error) {
	p := ex.p
	type groupState struct {
		first []any
		aggs  []*n1ql.Aggregator
	}
	groups := map[string]*groupState{}
	var order []*groupState
	open := func(key string, first []any) *groupState {
		gs := &groupState{first: first}
		for _, a := range p.Aggregates {
			gs.aggs = append(gs.aggs, n1ql.NewAggregator(a.FuncCall))
		}
		groups[key] = gs
		order = append(order, gs)
		return gs
	}
	for _, r := range rows {
		ctx := ex.at(r)
		keyParts := make([]any, len(p.GroupBy))
		for i, g := range p.GroupBy {
			v, err := n1ql.Eval(g, ctx)
			if err != nil {
				return nil, err
			}
			keyParts[i] = v
		}
		key := string(value.EncodeKey(keyParts))
		gs, ok := groups[key]
		if !ok {
			gs = open(key, r)
		}
		for i, a := range p.Aggregates {
			if a.Star {
				gs.aggs[i].Add(true) // COUNT(*) counts rows
				continue
			}
			v, err := n1ql.Eval(a.Args[0], ctx)
			if err != nil {
				return nil, err
			}
			gs.aggs[i].Add(v)
		}
	}
	// Aggregate-only query over zero rows still yields one row
	// (SELECT COUNT(*) ... on an empty set returns 0).
	if len(groups) == 0 && len(p.GroupBy) == 0 {
		open("", ex.blank())
	}
	out := ex.arena.rows.take(len(order))
	for i, gs := range order {
		for k, a := range p.Aggregates {
			gs.first[a.Slot] = gs.aggs[k].Result()
		}
		out[i] = gs.first
	}
	if p.Having != nil {
		return ex.filter(out, p.Having)
	}
	return out, nil
}

// project is the Project operator: it writes each row's result value
// (InitialProject + FinalProject: shrink to the referenced fields, then
// shape the result JSON) and sort keys to their slots and, for
// DISTINCT, drops rows whose projection an earlier row of any batch
// already had.
func (ex *selectExec) project(rows [][]any) ([][]any, error) {
	p := ex.p
	out := rows[:0]
	for _, r := range rows {
		ctx := ex.at(r)
		if p.Raw {
			v, err := n1ql.Eval(p.Projection[0].Expr, ctx)
			if err != nil {
				return nil, err
			}
			if value.IsMissing(v) {
				v = nil
			}
			r[p.Out] = v
		} else {
			obj, err := projectTerms(p.Projection, p.Stars, ctx)
			if err != nil {
				return nil, err
			}
			r[p.Out] = obj
		}
		if p.Distinct {
			key := string(value.EncodeKey(r[p.Out]))
			if ex.seen[key] {
				continue
			}
			ex.seen[key] = true
		}
		for k, at := range p.SortKeys {
			v, err := n1ql.Eval(p.OrderBy[k].Expr, ctx)
			if err != nil {
				return nil, err
			}
			r[at] = v
		}
		out = append(out, r)
	}
	return out, nil
}

// projectTerms shapes one result object from planned projection (or
// RETURNING) terms; MISSING values are omitted. stars are the bindings
// a plain * stands for.
func projectTerms(terms []n1ql.ResultTerm, stars []planner.Binding, ctx *n1ql.Context) (map[string]any, error) {
	obj := make(map[string]any, len(terms))
	for _, rt := range terms {
		if rt.Star {
			if err := projectStar(obj, rt, stars, ctx); err != nil {
				return nil, err
			}
			continue
		}
		v, err := n1ql.Eval(rt.Expr, ctx)
		if err != nil {
			return nil, err
		}
		if value.IsMissing(v) {
			continue
		}
		obj[rt.Alias] = v
	}
	return obj, nil
}

// sort is the Sort operator, for an ORDER BY the scan does not deliver.
func (ex *selectExec) sort(rows [][]any) ([][]any, error) {
	p := ex.p
	slices.SortStableFunc(rows, func(a, b []any) int {
		for k, at := range p.SortKeys {
			if c := value.Compare(a[at], b[at]); c != 0 {
				if p.OrderBy[k].Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	return rows, nil
}

// projectStar merges * or alias.* into the result object. Plain *
// yields {alias: document} per N1QL semantics; alias.* splices the
// document's own fields.
func projectStar(obj map[string]any, rt n1ql.ResultTerm, stars []planner.Binding, ctx *n1ql.Context) error {
	if rt.Expr == nil {
		// Plain *: every keyspace/join/unnest binding under its alias.
		for _, b := range stars {
			if doc := ctx.Slots[b.Slot]; !value.IsMissing(doc) {
				obj[b.Name] = doc
			}
		}
		return nil
	}
	v, err := n1ql.Eval(rt.Expr, ctx)
	if err != nil {
		return err
	}
	if m, ok := v.(map[string]any); ok {
		for k, f := range m {
			obj[k] = f
		}
	}
	return nil
}
