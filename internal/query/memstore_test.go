package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"couchgo/internal/executor"
	"couchgo/internal/gsi"
	"couchgo/internal/n1ql"
	"couchgo/internal/planner"
	"couchgo/internal/value"
)

// memStore is a deliberately naive reference implementation of Store:
// documents in a map, "index scans" by evaluating the index expressions
// over every document and sorting. It is an independent oracle for the
// planner/executor — no btree, no gsi, no dcp.
type memStore struct {
	epoch   atomic.Uint64 // bumped by every index DDL
	mu      sync.Mutex
	docs    map[string]map[string]any // keyspace -> id -> doc
	indexes map[string][]memIndex     // keyspace -> defs
}

type memIndex struct {
	info  planner.IndexInfo
	scope *n1ql.Scope // of the document rows the exprs below read
	keys  []n1ql.Expr // parsed canonical key exprs
	where n1ql.Expr
	array *n1ql.ArrayComprehension
}

func newMemStore(keyspaces ...string) *memStore {
	s := &memStore{docs: map[string]map[string]any{}, indexes: map[string][]memIndex{}}
	for _, ks := range keyspaces {
		s.docs[ks] = map[string]any{}
	}
	return s
}

func (s *memStore) put(ks, id, doc string) {
	v, ok := value.Parse([]byte(doc))
	if !ok {
		panic("bad doc json: " + doc)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs[ks][id] = v
}

// --- planner.Catalog ---

func (s *memStore) KeyspaceExists(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.docs[name]
	return ok
}

func (s *memStore) Indexes(keyspace string) []planner.IndexInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []planner.IndexInfo
	for _, ix := range s.indexes[keyspace] {
		out = append(out, ix.info)
	}
	return out
}

func (s *memStore) CatalogEpoch() uint64 { return s.epoch.Load() }

// --- DDL ---

func (s *memStore) CreateIndex(ci *n1ql.CreateIndex) error {
	defer s.epoch.Add(1)
	mi := memIndex{
		info: planner.IndexInfo{
			Name:      ci.Name,
			Using:     ci.Using,
			IsPrimary: ci.Primary,
			Built:     true,
		},
		scope: n1ql.NewScope("self"),
	}
	if ci.Primary {
		mi.info.SecCanonical = []string{"meta().id"}
	}
	for i, ke := range ci.Keys {
		f := mi.scope.Resolve(n1ql.Formalize(ke, ci.Keyspace))
		mi.keys = append(mi.keys, f)
		mi.info.SecCanonical = append(mi.info.SecCanonical, f.String())
		if ac, ok := f.(*n1ql.ArrayComprehension); ok && i == 0 {
			mi.array = ac
			mi.info.IsArray = true
		}
	}
	if ci.Where != nil {
		f := mi.scope.Resolve(n1ql.Formalize(ci.Where, ci.Keyspace))
		mi.where = f
		mi.info.WhereCanonical = f.String()
	}
	if ci.With != nil {
		if d, ok := ci.With["defer_build"].(bool); ok && d {
			mi.info.Built = false
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ex := range s.indexes[ci.Keyspace] {
		if ex.info.Name == ci.Name {
			return fmt.Errorf("index %s already exists", ci.Name)
		}
	}
	s.indexes[ci.Keyspace] = append(s.indexes[ci.Keyspace], mi)
	return nil
}

func (s *memStore) DropIndex(keyspace, name string) error {
	defer s.epoch.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.indexes[keyspace]
	for i, ix := range list {
		if ix.info.Name == name {
			s.indexes[keyspace] = append(list[:i], list[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("no such index %s", name)
}

func (s *memStore) BuildIndex(keyspace, name string) error {
	defer s.epoch.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.indexes[keyspace] {
		if s.indexes[keyspace][i].info.Name == name {
			s.indexes[keyspace][i].info.Built = true
			return nil
		}
	}
	return fmt.Errorf("no such index %s", name)
}

// --- executor.Datastore ---

func (s *memStore) Fetch(_ context.Context, keyspace, id string) (any, n1ql.Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	doc, ok := s.docs[keyspace][id]
	if !ok {
		return nil, n1ql.Meta{}, executor.ErrNotFound
	}
	return doc, n1ql.Meta{ID: id}, nil
}

func (s *memStore) ConsistencyVector(string) map[int]uint64 { return nil }

func (s *memStore) ScanIndex(_ context.Context, keyspace, index string, _ n1ql.IndexUsing, opts gsi.ScanOptions) ([]gsi.ScanItem, bool, error) {
	s.mu.Lock()
	var mi *memIndex
	for i := range s.indexes[keyspace] {
		if s.indexes[keyspace][i].info.Name == index {
			mi = &s.indexes[keyspace][i]
			break
		}
	}
	if mi == nil {
		s.mu.Unlock()
		return nil, false, fmt.Errorf("no such index %s", index)
	}
	type pair struct {
		id  string
		sec []any
	}
	var entries []pair
	for id, doc := range s.docs[keyspace] {
		ctx := mi.scope.NewContext(doc, n1ql.Meta{ID: id})
		if mi.where != nil {
			ok, err := n1ql.Eval(mi.where, ctx)
			if err != nil || ok != true {
				continue
			}
		}
		if mi.info.IsPrimary {
			entries = append(entries, pair{id: id, sec: []any{id}})
			continue
		}
		if mi.array != nil {
			elems, err := n1ql.Eval(mi.array, ctx)
			if err != nil {
				continue
			}
			arr, ok := elems.([]any)
			if !ok {
				continue
			}
			seen := map[string]bool{}
			for _, el := range arr {
				k := string(value.EncodeKey(el))
				if seen[k] {
					continue
				}
				seen[k] = true
				entries = append(entries, pair{id: id, sec: []any{el}})
			}
			continue
		}
		sec := make([]any, len(mi.keys))
		skip := false
		for i, ke := range mi.keys {
			v, err := n1ql.Eval(ke, ctx)
			if err != nil {
				skip = true
				break
			}
			if i == 0 && value.IsMissing(v) {
				skip = true
				break
			}
			sec[i] = v
		}
		if !skip {
			entries = append(entries, pair{id: id, sec: sec})
		}
	}
	s.mu.Unlock()

	// Bound filtering with prefix semantics (compare the first
	// len(bound) positions).
	cmpPrefix := func(sec, bound []any) int {
		n := len(bound)
		if len(sec) < n {
			n = len(sec)
		}
		for i := 0; i < n; i++ {
			if c := value.Compare(sec[i], bound[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	var kept []pair
	for _, e := range entries {
		if opts.HasEqual {
			if value.Compare(e.sec, opts.EqualKey) != 0 {
				continue
			}
		}
		if opts.Low != nil {
			c := cmpPrefix(e.sec, opts.Low)
			if c < 0 || (c == 0 && !opts.LowIncl) {
				continue
			}
		}
		if opts.High != nil {
			c := cmpPrefix(e.sec, opts.High)
			if c > 0 || (c == 0 && !opts.HighIncl) {
				continue
			}
		}
		kept = append(kept, e)
	}
	// before orders two entries in scan direction.
	before := func(sec []any, id string, sec2 []any, id2 string) bool {
		c := value.Compare(sec, sec2)
		if c == 0 {
			c = strings.Compare(id, id2)
		}
		if opts.Reverse {
			return c > 0
		}
		return c < 0
	}
	sort.SliceStable(kept, func(i, j int) bool {
		return before(kept[i].sec, kept[i].id, kept[j].sec, kept[j].id)
	})
	// One page: the entries strictly after the continuation, Limit of them.
	var out []gsi.ScanItem
	for _, e := range kept {
		if opts.After != nil && !before(opts.After.SecKey, opts.After.DocID, e.sec, e.id) {
			continue
		}
		if opts.Limit > 0 && len(out) == opts.Limit {
			return out, true, nil
		}
		out = append(out, gsi.ScanItem{DocID: e.id, SecKey: e.sec})
	}
	return out, false, nil
}

// --- DML ---

func (s *memStore) InsertDoc(_ context.Context, keyspace, id string, doc any, upsert bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.docs[keyspace][id]; exists && !upsert {
		return fmt.Errorf("document %s already exists", id)
	}
	s.docs[keyspace][id] = doc
	return nil
}

func (s *memStore) UpdateDoc(_ context.Context, keyspace, id string, doc any, _ uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.docs[keyspace][id]; !exists {
		return executor.ErrNotFound
	}
	s.docs[keyspace][id] = doc
	return nil
}

func (s *memStore) DeleteDoc(_ context.Context, keyspace, id string, _ uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.docs[keyspace][id]; !exists {
		return executor.ErrNotFound
	}
	delete(s.docs[keyspace], id)
	return nil
}
