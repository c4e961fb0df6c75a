// Package gsi implements Global Secondary Indexes (paper §3.3.2,
// §4.3.4, Figure 9). The division of labour follows the paper:
//
//   - The Projector lives on the data service node where mutations
//     originate; it consumes the DCP feed and maps each mutation to the
//     set of Key Versions needed for secondary index maintenance.
//   - The Router, co-located with the projector, sends Key Versions to
//     the indexer(s) responsible, using the index partitioning topology.
//   - The Indexer, on an index service node, applies the changes to the
//     on-disk (or, for the 4.5 memory-optimized mode of §6.1.1, fully
//     in-memory) index structure and serves scans.
//
// Partial ("selective", §3.3.4) indexes, composite keys, array indexes
// (§6.1.2), primary indexes (§3.3.3), and request_plus consistency
// (§3.2.3) are all supported.
package gsi

import (
	"errors"
	"fmt"
	"hash/crc32"

	"couchgo/internal/n1ql"
	"couchgo/internal/value"
)

// StorageMode selects the indexer's storage engine.
type StorageMode int

const (
	// Standard persists every maintenance batch to an append-only disk
	// log (the forestdb-backed default of version 4.1).
	Standard StorageMode = iota
	// MemoryOptimized keeps the whole index in memory with periodic
	// disk snapshots for recoverability (version 4.5, §6.1.1): "These
	// new indexes will reside completely in memory, dramatically
	// reducing dependence on disk."
	MemoryOptimized
)

func (m StorageMode) String() string {
	if m == MemoryOptimized {
		return "memory_optimized"
	}
	return "standard"
}

// Errors returned by the GSI service.
var (
	ErrNoSuchIndex = errors.New("gsi: no such index")
	ErrIndexExists = errors.New("gsi: index already exists")
	ErrBadDef      = errors.New("gsi: invalid index definition")
	// ErrPartitionWait refuses ScanOptions.WaitSeqnos on a bare
	// partition: only Service.Scan has a feed to wait on.
	ErrPartitionWait = errors.New("gsi: a partition cannot wait for WaitSeqnos; scan through Service.Scan")
)

// Def declares an index.
type Def struct {
	Name     string
	Keyspace string
	// SecExprs are the index key expressions (canonical or raw source;
	// they are formalized against the keyspace on compile). Empty for a
	// primary index.
	SecExprs []string
	// WhereExpr is the partial-index predicate, "" for none.
	WhereExpr string
	IsPrimary bool
	// NumPartitions > 1 range/hash-partitions the index across
	// indexers. Defaults to 1.
	NumPartitions int
	Mode          StorageMode
	// Deferred indexes are created but not built until BuildIndex.
	Deferred bool
}

// compiledDef carries the parsed, formalized expressions, resolved to
// read a document's row of scope.
type compiledDef struct {
	Def
	scope   *n1ql.Scope
	secKeys []n1ql.Expr
	where   n1ql.Expr
	// arrayKey, when non-nil, is the ArrayComprehension in position 0
	// of the key list: the index is an array index emitting one entry
	// per element (§6.1.2).
	arrayKey *n1ql.ArrayComprehension
	// canonical strings for planner matching.
	SecCanonical   []string
	WhereCanonical string
}

func compileDef(def Def) (*compiledDef, error) {
	if def.NumPartitions <= 0 {
		def.NumPartitions = 1
	}
	cd := &compiledDef{Def: def, scope: n1ql.NewScope("self")}
	if def.IsPrimary {
		if len(def.SecExprs) > 0 {
			return nil, fmt.Errorf("%w: primary index cannot have key expressions", ErrBadDef)
		}
		// The primary index's single key is the document ID.
		cd.SecCanonical = []string{"meta().id"}
	}
	for i, src := range def.SecExprs {
		e, err := n1ql.ParseExpr(src)
		if err != nil {
			return nil, fmt.Errorf("%w: key %d: %v", ErrBadDef, i, err)
		}
		f := cd.scope.Resolve(n1ql.Formalize(e, def.Keyspace))
		if i == 0 {
			if ac, ok := f.(*n1ql.ArrayComprehension); ok {
				cd.arrayKey = ac
			}
		} else if _, ok := f.(*n1ql.ArrayComprehension); ok {
			return nil, fmt.Errorf("%w: array key must be the leading index key", ErrBadDef)
		}
		cd.secKeys = append(cd.secKeys, f)
		cd.SecCanonical = append(cd.SecCanonical, f.String())
	}
	if def.WhereExpr != "" {
		e, err := n1ql.ParseExpr(def.WhereExpr)
		if err != nil {
			return nil, fmt.Errorf("%w: where: %v", ErrBadDef, err)
		}
		f := cd.scope.Resolve(n1ql.Formalize(e, def.Keyspace))
		cd.where = f
		cd.WhereCanonical = f.String()
	}
	if !def.IsPrimary && len(cd.secKeys) == 0 {
		return nil, fmt.Errorf("%w: no key expressions", ErrBadDef)
	}
	return cd, nil
}

// readsDoc reports whether maintaining the index evaluates anything
// against the document. A primary index without a WHERE does not: its
// projector validates a mutation's value instead of decoding it.
func (cd *compiledDef) readsDoc() bool { return !cd.IsPrimary || cd.where != nil }

// entries computes the index entries for one document: a slice of
// composite secondary keys. nil means the document does not qualify
// (filtered by the partial-index predicate, or its key is MISSING).
func (cd *compiledDef) entries(docID string, doc any, cas uint64) ([][]any, error) {
	if !cd.readsDoc() {
		return [][]any{{docID}}, nil
	}
	ctx := cd.scope.NewContext(doc, n1ql.Meta{ID: docID, CAS: cas})
	if cd.where != nil {
		ok, err := n1ql.Eval(cd.where, ctx)
		if err != nil {
			return nil, err
		}
		if ok != true {
			return nil, nil
		}
	}
	if cd.IsPrimary {
		return [][]any{{docID}}, nil
	}
	if cd.arrayKey != nil {
		return cd.arrayEntries(ctx)
	}
	key := make([]any, len(cd.secKeys))
	for i, e := range cd.secKeys {
		v, err := n1ql.Eval(e, ctx)
		if err != nil {
			return nil, err
		}
		if i == 0 && value.IsMissing(v) {
			// A document whose leading key is MISSING is not indexed —
			// the reason IS MISSING predicates cannot use an index.
			return nil, nil
		}
		key[i] = v
	}
	return [][]any{key}, nil
}

// arrayEntries expands the leading array comprehension into one entry
// per (distinct) element, each carrying the trailing key values.
func (cd *compiledDef) arrayEntries(ctx *n1ql.Context) ([][]any, error) {
	elems, err := n1ql.Eval(cd.arrayKey, ctx)
	if err != nil {
		return nil, err
	}
	arr, ok := elems.([]any)
	if !ok {
		return nil, nil
	}
	trailing := make([]any, len(cd.secKeys)-1)
	for i, e := range cd.secKeys[1:] {
		v, err := n1ql.Eval(e, ctx)
		if err != nil {
			return nil, err
		}
		trailing[i] = v
	}
	var out [][]any
	seen := map[string]bool{}
	for _, el := range arr {
		if value.IsMissing(el) {
			continue
		}
		ek := string(value.EncodeKey(el))
		if seen[ek] {
			continue
		}
		seen[ek] = true
		entry := make([]any, 0, len(cd.secKeys))
		entry = append(entry, el)
		entry = append(entry, trailing...)
		out = append(out, entry)
	}
	return out, nil
}

// Partition assigns a document to one of the index's partitions. A
// hash on the document ID keeps all entries for one document together,
// so "an insert message may be sent to one indexer with a delete
// message being sent to another" only when the partition key changes —
// here the doc ID is the partition key, so a doc's entries never split.
func (cd *compiledDef) Partition(docID string) int {
	if cd.NumPartitions <= 1 {
		return 0
	}
	return int(crc32.ChecksumIEEE([]byte(docID)) % uint32(cd.NumPartitions))
}
