// Package fts implements the full-text search service of the paper's
// near-term plans (§6.1.3): "This is typically based on a reverse
// index, where all the words within the data are indexed to be able to
// do term-based, phrase-based, and/or prefix-based searches. Full-text
// search is another type of service ... that will receive data
// mutations via in-memory DCP and will be able to be scaled up or out
// independently."
//
// The engine consumes per-vBucket DCP feeds, tokenizes the configured
// document fields, and maintains an inverted index (term → postings
// with positions) supporting term, prefix, and phrase queries.
package fts

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"couchgo/internal/btree"
	"couchgo/internal/dcp"
	"couchgo/internal/feed"
	"couchgo/internal/value"
)

// Errors returned by the FTS engine.
var (
	ErrNoSuchIndex = errors.New("fts: no such index")
	ErrIndexExists = errors.New("fts: index already exists")
)

// IndexDef declares a full-text index. Fields lists the document paths
// to index; empty indexes every top-level string field.
type IndexDef struct {
	Name   string
	Fields []string
}

// Hit is one search result.
type Hit struct {
	ID string
	// Score is term frequency (matches in the document); results sort
	// by descending score then ID.
	Score int
}

// posting records one document's occurrences of a term.
type posting struct {
	positions []int
}

// ftsIndex is one index's state.
type ftsIndex struct {
	def    IndexDef
	fields []value.Path

	// feed is the index's subscription, set (under Engine.mu) once
	// Define has subscribed it; consistent searches wait on its
	// applied-seqno vector.
	feed *feed.Feed

	mu       sync.Mutex
	terms    *btree.Tree[map[string]*posting] // term bytes -> postings by docID
	docTerms map[string][]string              // back index: docID -> terms
}

// Engine is the FTS service instance for one bucket. DCP consumption
// goes through the shared feed layer: each index subscribes to the
// bucket's hub as one named consumer.
type Engine struct {
	hub *feed.Hub

	mu      sync.Mutex
	indexes map[string]*ftsIndex
}

// NewEngine creates an empty FTS engine whose indexes subscribe to the
// bucket's hub.
func NewEngine(hub *feed.Hub) *Engine {
	return &Engine{hub: hub, indexes: make(map[string]*ftsIndex)}
}

// Define creates an index and begins building it over attached
// vBuckets via DCP backfill.
func (e *Engine) Define(def IndexDef) error {
	fi := &ftsIndex{
		def:      def,
		terms:    btree.New[map[string]*posting](nil),
		docTerms: make(map[string][]string),
	}
	for _, f := range def.Fields {
		p, ok := value.ParsePath(f)
		if !ok {
			return errors.New("fts: bad field path " + f)
		}
		fi.fields = append(fi.fields, p)
	}
	e.mu.Lock()
	if _, ok := e.indexes[def.Name]; ok {
		e.mu.Unlock()
		return ErrIndexExists
	}
	e.indexes[def.Name] = fi
	e.mu.Unlock()
	f, err := e.hub.Subscribe("fts:"+def.Name, "fts", fi)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		delete(e.indexes, def.Name)
		return err
	}
	fi.feed = f
	return nil
}

// Drop removes an index.
func (e *Engine) Drop(name string) error {
	e.mu.Lock()
	_, ok := e.indexes[name]
	delete(e.indexes, name)
	e.mu.Unlock()
	if !ok {
		return ErrNoSuchIndex
	}
	e.hub.Unsubscribe("fts:" + name)
	return nil
}

// Rollback implements feed.Rollbacker: drop this vBucket's documents
// so the feed can re-stream the partition from the promoted copy's
// (shorter) history.
func (fi *ftsIndex) Rollback(vb int, _ uint64) uint64 {
	fi.mu.Lock()
	// The back index has no vb field; the vb marker lives in the
	// docTerms key.
	var drop []string
	for dockey := range fi.docTerms {
		if docVB(dockey) == vb {
			drop = append(drop, dockey)
		}
	}
	for _, dockey := range drop {
		fi.removeDocLocked(dockey)
	}
	fi.mu.Unlock()
	return 0
}

// docKey packs (vb, docID) into the back-index key.
func docKey(vb int, id string) string { return strconv.Itoa(vb) + "\x00" + id }

func docVB(dockey string) int {
	i := strings.IndexByte(dockey, 0)
	if i < 0 {
		return -1
	}
	n, err := strconv.Atoi(dockey[:i])
	if err != nil {
		return -1
	}
	return n
}

func docID(dockey string) string {
	i := strings.IndexByte(dockey, 0)
	return dockey[i+1:]
}

// Tokenize lowercases and splits text on non-alphanumeric runes.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// tokensOf extracts the indexable token stream from a document,
// concatenating indexed fields with a position gap so phrases never
// match across field boundaries.
func (fi *ftsIndex) tokensOf(doc any) []string {
	var out []string
	addText := func(s string) {
		if len(out) > 0 {
			out = append(out, "") // field boundary gap
		}
		out = append(out, Tokenize(s)...)
	}
	if len(fi.fields) == 0 {
		for _, name := range value.FieldNames(doc) {
			if s, ok := value.Field(doc, name).(string); ok {
				addText(s)
			}
		}
		return out
	}
	for _, p := range fi.fields {
		v := p.Eval(doc)
		switch t := v.(type) {
		case string:
			addText(t)
		case []any:
			for _, el := range t {
				if s, ok := el.(string); ok {
					addText(s)
				}
			}
		}
	}
	return out
}

// Apply implements feed.Consumer: index a batch of mutations.
func (fi *ftsIndex) Apply(vb int, batch []dcp.Mutation) {
	for _, m := range batch {
		fi.index(vb, m)
	}
}

// index replaces one document's postings.
func (fi *ftsIndex) index(vb int, m dcp.Mutation) {
	var tokens []string
	if !m.Deleted {
		if doc, ok := value.Parse(m.Value); ok {
			tokens = fi.tokensOf(doc)
		}
	}
	dockey := docKey(vb, m.Key)
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.removeDocLocked(dockey)
	if len(tokens) > 0 {
		byTerm := map[string][]int{}
		for pos, tok := range tokens {
			if tok == "" {
				continue
			}
			byTerm[tok] = append(byTerm[tok], pos)
		}
		var termList []string
		for term, positions := range byTerm {
			termList = append(termList, term)
			postings, ok := fi.terms.Get([]byte(term))
			if !ok {
				postings = map[string]*posting{}
				fi.terms.Set([]byte(term), postings)
			}
			postings[dockey] = &posting{positions: positions}
		}
		fi.docTerms[dockey] = termList
	}
}

func (fi *ftsIndex) removeDocLocked(dockey string) {
	for _, term := range fi.docTerms[dockey] {
		if postings, ok := fi.terms.Get([]byte(term)); ok {
			delete(postings, dockey)
			if len(postings) == 0 {
				fi.terms.Delete([]byte(term))
			}
		}
	}
	delete(fi.docTerms, dockey)
}

// SearchOptions tune a query.
type SearchOptions struct {
	Limit int
	// WaitSeqnos requests read-your-own-writes consistency, as with
	// stale=false view queries: the search waits (bounded by its ctx)
	// until the index's feed has applied the vector.
	WaitSeqnos map[int]uint64
}

// SearchTerm finds documents containing the exact term.
func (e *Engine) SearchTerm(ctx context.Context, index, term string, opts SearchOptions) ([]Hit, error) {
	fi, err := e.index(ctx, index, opts)
	if err != nil {
		return nil, err
	}
	term = strings.ToLower(term)
	fi.mu.Lock()
	defer fi.mu.Unlock()
	scores := map[string]int{}
	if postings, ok := fi.terms.Get([]byte(term)); ok {
		for dockey, p := range postings {
			scores[docID(dockey)] += len(p.positions)
		}
	}
	return rankHits(scores, opts.Limit), nil
}

// SearchPrefix finds documents containing any term with the prefix.
func (e *Engine) SearchPrefix(ctx context.Context, index, prefix string, opts SearchOptions) ([]Hit, error) {
	fi, err := e.index(ctx, index, opts)
	if err != nil {
		return nil, err
	}
	prefix = strings.ToLower(prefix)
	lo := []byte(prefix)
	hi := append([]byte(prefix), 0xFF)
	fi.mu.Lock()
	defer fi.mu.Unlock()
	scores := map[string]int{}
	fi.terms.Ascend(lo, hi, func(_ []byte, postings map[string]*posting) bool {
		for dockey, p := range postings {
			scores[docID(dockey)] += len(p.positions)
		}
		return true
	})
	return rankHits(scores, opts.Limit), nil
}

// SearchPhrase finds documents containing the exact token sequence.
func (e *Engine) SearchPhrase(ctx context.Context, index, phrase string, opts SearchOptions) ([]Hit, error) {
	fi, err := e.index(ctx, index, opts)
	if err != nil {
		return nil, err
	}
	tokens := Tokenize(phrase)
	if len(tokens) == 0 {
		return nil, nil
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	// Candidate docs: postings of the first token.
	first, ok := fi.terms.Get([]byte(tokens[0]))
	if !ok {
		return nil, nil
	}
	scores := map[string]int{}
	for dockey, p0 := range first {
		count := 0
		for _, start := range p0.positions {
			match := true
			for i := 1; i < len(tokens); i++ {
				postings, ok := fi.terms.Get([]byte(tokens[i]))
				if !ok {
					match = false
					break
				}
				pi, ok := postings[dockey]
				if !ok || !containsPos(pi.positions, start+i) {
					match = false
					break
				}
			}
			if match {
				count++
			}
		}
		if count > 0 {
			scores[docID(dockey)] += count
		}
	}
	return rankHits(scores, opts.Limit), nil
}

func containsPos(sorted []int, want int) bool {
	i := sort.SearchInts(sorted, want)
	return i < len(sorted) && sorted[i] == want
}

func rankHits(scores map[string]int, limit int) []Hit {
	hits := make([]Hit, 0, len(scores))
	for id, s := range scores {
		hits = append(hits, Hit{ID: id, Score: s})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// index resolves a search's index (one is searchable once Define has
// subscribed it) and serves the search's consistency wait.
func (e *Engine) index(ctx context.Context, name string, opts SearchOptions) (*ftsIndex, error) {
	e.mu.Lock()
	fi, ok := e.indexes[name]
	ok = ok && fi.feed != nil
	e.mu.Unlock()
	if !ok {
		return nil, ErrNoSuchIndex
	}
	return fi, fi.feed.Wait(ctx, opts.WaitSeqnos)
}
