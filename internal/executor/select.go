package executor

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/gsi"
	"couchgo/internal/n1ql"
	"couchgo/internal/planner"
	"couchgo/internal/value"
)

// row is one item flowing through the pipeline.
type row struct {
	// id is the document a scan named; Fetch turns it into slots.
	id string
	// slots hold the value of every name in the plan's scope, cut from
	// a slab the producing operator allocates per batch.
	slots []any
	// projected and sortKey are filled late in the pipeline.
	projected any
	sortKey   []any
}

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
	next(want int) ([]row, error)
}

// drain pulls op dry.
func drain(op operator) ([]row, error) {
	var all []row
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

// stream is a streaming operator: each upstream batch goes through fn,
// and demand passes through unchanged. It pulls again while fn drops a
// whole batch, so only a dry upstream makes it return empty.
type stream struct {
	up operator
	fn func([]row) ([]row, error)
}

func (s *stream) next(want int) ([]row, error) {
	for {
		in, err := s.up.next(want)
		if err != nil || len(in) == 0 {
			return nil, err
		}
		out, err := s.fn(in)
		if err != nil || len(out) > 0 {
			return out, err
		}
	}
}

// barrier is a blocking operator (GROUP BY, a Sort the index does not
// deliver): it needs every upstream row before its first output, which
// it hands over as one batch.
type barrier struct {
	up   operator
	fn   func([]row) ([]row, error)
	done bool
}

func (b *barrier) next(int) ([]row, error) {
	if b.done {
		return nil, nil
	}
	b.done = true
	all, err := drain(b.up)
	if err != nil {
		return nil, err
	}
	return b.fn(all)
}

// limitOp is Offset + Limit, the origin of demand: it asks upstream for
// exactly the rows it still has to skip and return, and stops asking
// once it has them.
type limitOp struct {
	up           operator
	skip, remain int // remain is noLimit without a LIMIT clause
}

func (l *limitOp) next(int) ([]row, error) {
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
// minus its upstream's.
type phase struct {
	name  string
	op    operator
	busy  time.Duration
	items int
}

func (ph *phase) next(want int) ([]row, error) {
	t0 := time.Now()
	rows, err := ph.op.next(want)
	ph.busy += time.Since(t0)
	ph.items += len(rows)
	return rows, err
}

// ExecuteSelect runs a planned SELECT and returns the result values
// (one JSON value per row).
func ExecuteSelect(p *planner.SelectPlan, ds Datastore, opts Options) ([]any, error) {
	rows, err := (&selectExec{p: p, ds: ds, opts: opts}).run()
	if err != nil {
		return nil, err
	}
	out := make([]any, len(rows))
	for i := range rows {
		out[i] = rows[i].projected
	}
	return out, nil
}

type selectExec struct {
	p    *planner.SelectPlan
	ds   Datastore
	opts Options

	// ctx is the execution's one evaluation context; at points it at
	// a row. width is the slots a row has, and consts the row with no
	// name bound that LIMIT, OFFSET, USE KEYS and span bounds read.
	ctx    n1ql.Context
	width  int
	consts []any

	top    operator
	scan   *scanOp
	phases []*phase
}

func (ex *selectExec) at(slots []any) *n1ql.Context {
	ex.ctx.Slots = slots
	return &ex.ctx
}

// blank returns a row in which every name is unbound.
func (ex *selectExec) blank() []any {
	slots := make([]any, ex.width)
	for i := range slots {
		slots[i] = value.Missing
	}
	return slots
}

// fan appends n copies of r to out, the first over r's own slots and
// the rest over fresh ones, for an operator that turns one row into n.
func fan(out []row, r row, n int) []row {
	out = append(out, r)
	w := len(r.slots)
	slab := make([]any, (n-1)*w)
	for ; n > 1; n-- {
		r.slots, slab = slab[:w:w], slab[w:]
		copy(r.slots, out[len(out)-1].slots)
		out = append(out, r)
	}
	return out
}

// add appends an operator, timed under name, to the pipeline.
func (ex *selectExec) add(name string, op operator) {
	ph := &phase{name: name, op: op}
	ex.phases = append(ex.phases, ph)
	ex.top = ph
}

func (ex *selectExec) addStream(name string, fn func([]row) ([]row, error)) {
	ex.add(name, &stream{up: ex.top, fn: fn})
}

// run assembles the pipeline the plan describes, pulls the rows LIMIT
// and OFFSET ask for through it, and reports each operator once.
func (ex *selectExec) run() ([]row, error) {
	p := ex.p
	ex.ctx.Params, ex.width = ex.opts.Params, p.Scope.Len()
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
		ex.addStream("fetch", ex.fetch)
	}
	if len(p.Joins) > 0 {
		ex.addStream("join", ex.joiner())
	}
	if len(p.Unnests) > 0 {
		ex.addStream("unnest", ex.unnest)
	}
	if p.Where != nil {
		ex.addStream("filter", func(rows []row) ([]row, error) { return ex.filter(rows, p.Where) })
	}
	if len(p.GroupBy) > 0 || len(p.Aggregates) > 0 {
		ex.add("group", &barrier{up: ex.top, fn: ex.group})
	}
	ex.addStream("project", ex.projector())
	if len(p.OrderBy) > 0 && !p.OrderFromIndex {
		ex.add("sort", &barrier{up: ex.top, fn: ex.sort})
	}
	if limit < 0 {
		limit = noLimit
	}
	rows, err := drain(&limitOp{up: ex.top, skip: offset, remain: limit})
	if err != nil {
		return nil, err
	}
	if ex.scan != nil {
		ex.phases[0].items = ex.scan.examined
	}
	var upstream time.Duration
	for _, ph := range ex.phases {
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
type rowsOp struct{ rows []row }

func (o *rowsOp) next(int) ([]row, error) {
	rows := o.rows
	o.rows = nil
	return rows, nil
}

// scanOp is the access path. It turns index entries into rows a batch
// at a time and asks the datastore for a page only when its buffer has
// run dry, so a scan whose consumer stops asking stops reading the
// index. Covering plans get their row's slots here (§5.1.2: "covered
// queries ... deliver better performance" by skipping the fetch);
// others pass the document ID on to Fetch.
type scanOp struct {
	ex    *selectExec
	index string
	using n1ql.IndexUsing
	// opts carry the evaluated span and, between pages, the
	// continuation.
	opts  gsi.ScanOptions
	cover bool

	buf      []gsi.ScanItem // read from the index, not yet handed out
	more     bool           // the span may continue after buf
	size     int            // the previous batch's size
	examined int            // entries the datastore returned
}

// next sizes its batch, and the page behind it, from demand: the rows
// still wanted, doubled on every repeat call (a consumer that comes
// back dropped rows of the last batch, so a selective filter costs a
// logarithmic number of pages), capped at maxBatch.
func (s *scanOp) next(want int) ([]row, error) {
	s.size = min(max(want, 2*s.size), maxBatch)
	if len(s.buf) == 0 && s.more {
		opts := s.opts
		opts.Limit = s.size
		page, more, err := s.ex.ds.ScanIndex(s.ex.opts.Context(), s.ex.p.Keyspace, s.index, s.using, opts)
		if err != nil {
			return nil, err
		}
		s.buf, s.more = page, more && len(page) > 0
		s.examined += len(page)
		if s.more {
			s.opts.After = &page[len(page)-1]
			s.opts.WaitSeqnos = nil // request_plus waits once
		}
	}
	n := min(s.size, len(s.buf))
	rows := make([]row, n)
	if s.cover {
		p, w := s.ex.p, s.ex.width
		slab := make([]any, n*w)
		for i, e := range s.buf[:n] {
			slots := slab[i*w : (i+1)*w]
			if p.CoverID >= 0 {
				slots[p.CoverID] = e.DocID
			}
			for k, at := range p.Cover {
				if k < len(e.SecKey) {
					slots[at] = e.SecKey[k]
				} else {
					slots[at] = value.Missing
				}
			}
			rows[i].slots = slots
		}
	} else {
		for i, e := range s.buf[:n] {
			rows[i].id = e.DocID
		}
	}
	s.buf = s.buf[n:]
	return rows, nil
}

// addScan starts the pipeline with the plan's access path.
func (ex *selectExec) addScan() error {
	p := ex.p
	sc := &scanOp{ex: ex, cover: !p.Fetch}
	var span planner.Span
	switch scan := p.Scan.(type) {
	case nil:
		// FROM-less SELECT: one empty row.
		ex.top = &rowsOp{rows: []row{{slots: ex.blank()}}}
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
	ex.scan = sc
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
		out := make([]any, len(es))
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

// fetch is the parallel Fetch operator: it retrieves one batch's
// documents by ID with at most FetchParallelism workers, preserving
// scan order. Missing IDs drop out.
func (ex *selectExec) fetch(rows []row) ([]row, error) {
	w := ex.width
	slab, metas := make([]any, len(rows)*w), make([]n1ql.Meta, len(rows))
	one := func(i int) {
		doc, meta, err := ex.ds.Fetch(ex.opts.Context(), ex.p.Keyspace, rows[i].id)
		if err != nil {
			return
		}
		metas[i] = meta
		rows[i].slots = slab[i*w : (i+1)*w]
		rows[i].slots[n1ql.DocSlot], rows[i].slots[n1ql.MetaSlot] = doc, &metas[i]
	}
	workers := ex.opts.FetchParallelism
	if workers <= 0 {
		workers = 8
	}
	if workers = min(workers, len(rows)); workers == 1 {
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
	out := rows[:0]
	for _, r := range rows {
		if r.slots != nil {
			out = append(out, r)
		}
	}
	return out, nil
}

// joiner returns the Join/Nest operator over all of the plan's join
// terms. Each term's way of finding an outer row's inner matches is
// settled when the first batch arrives: the nested-loop key join of
// §4.5.3 ("for each of the qualifying documents from [the outer
// keyspace], a KEYSCAN will occur on [the inner] based on the key in
// the [outer] document") or, for ON <cond>, the analytics join path.
func (ex *selectExec) joiner() func([]row) ([]row, error) {
	var matchers []func([]any) ([]ScannedDoc, error)
	return func(rows []row) ([]row, error) {
		for i, j := range ex.p.Joins {
			if i == len(matchers) {
				m, err := ex.joinMatcher(j)
				if err != nil {
					return nil, err
				}
				matchers = append(matchers, m)
			}
			var out []row
			for _, r := range rows {
				matches, err := matchers[i](r.slots)
				if err != nil {
					return nil, err
				}
				out = appendJoinRows(out, r, j, matches)
			}
			rows = out
		}
		return rows, nil
	}
}

// keyMatches fetches the inner documents an outer row's ON KEYS names.
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
			if err != nil {
				continue
			}
			matches = append(matches, ScannedDoc{ID: id, Doc: doc, Meta: meta})
		}
		return matches, nil
	}
}

// unnest flattens nested arrays: "a join operation between a parent
// and a child object containing a nested array ... the parent object is
// repeated for each child array item."
func (ex *selectExec) unnest(rows []row) ([]row, error) {
	for _, u := range ex.p.Unnests {
		var out []row
		for _, r := range rows {
			v, err := n1ql.Eval(u.Expr, ex.at(r.slots))
			if err != nil {
				return nil, err
			}
			arr, ok := v.([]any)
			if !ok || len(arr) == 0 {
				if u.Kind == n1ql.JoinLeftOuter {
					r.slots[u.Slot] = value.Missing
					out = append(out, r)
				}
				continue
			}
			out = fan(out, r, len(arr))
			for i, el := range arr {
				out[len(out)-len(arr)+i].slots[u.Slot] = el
			}
		}
		rows = out
	}
	return rows, nil
}

func (ex *selectExec) filter(rows []row, cond n1ql.Expr) ([]row, error) {
	out := rows[:0]
	for _, r := range rows {
		v, err := n1ql.Eval(cond, ex.at(r.slots))
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
func (ex *selectExec) group(rows []row) ([]row, error) {
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
		ctx := ex.at(r.slots)
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
			gs = open(key, r.slots)
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
	out := make([]row, len(order))
	for i, gs := range order {
		for k, a := range p.Aggregates {
			gs.first[a.Slot] = gs.aggs[k].Result()
		}
		out[i].slots = gs.first
	}
	if p.Having != nil {
		return ex.filter(out, p.Having)
	}
	return out, nil
}

// projector returns the Project operator: it fills each row's projected
// value and sort key (InitialProject + FinalProject: shrink to the
// referenced fields, then shape the result JSON) and, for DISTINCT,
// drops rows whose projection an earlier row of any batch already had.
func (ex *selectExec) projector() func([]row) ([]row, error) {
	p := ex.p
	sortBy := p.OrderBy
	if p.OrderFromIndex {
		sortBy = nil
	}
	var seen map[string]bool
	if p.Distinct {
		seen = map[string]bool{}
	}
	return func(rows []row) ([]row, error) {
		out := rows[:0]
		for _, r := range rows {
			ctx := ex.at(r.slots)
			if p.Raw {
				v, err := n1ql.Eval(p.Projection[0].Expr, ctx)
				if err != nil {
					return nil, err
				}
				if value.IsMissing(v) {
					v = nil
				}
				r.projected = v
			} else {
				obj, err := projectTerms(p.Projection, p.Stars, ctx)
				if err != nil {
					return nil, err
				}
				r.projected = obj
			}
			if p.Distinct {
				key := string(value.EncodeKey(r.projected))
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			if len(sortBy) > 0 {
				r.sortKey = make([]any, len(sortBy))
				for k, ot := range sortBy {
					v, err := n1ql.Eval(ot.Expr, ctx)
					if err != nil {
						return nil, err
					}
					r.sortKey[k] = v
				}
			}
			out = append(out, r)
		}
		return out, nil
	}
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
func (ex *selectExec) sort(rows []row) ([]row, error) {
	sort.SliceStable(rows, func(i, j int) bool {
		for k := range rows[i].sortKey {
			c := value.Compare(rows[i].sortKey[k], rows[j].sortKey[k])
			if c == 0 {
				continue
			}
			if ex.p.OrderBy[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
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
