package cache

import (
	"context"
	"errors"
	"fmt"

	"couchgo/internal/value"
)

// Sub-document operations: read or mutate one path inside a JSON
// document atomically, without shipping the whole document to the
// client (the paper notes its DML statements "support sub-document
// level lookups and updates"; the KV API exposes the same capability).

// Sub-document errors.
var (
	ErrPathInvalid  = errors.New("cache: invalid sub-document path")
	ErrPathNotFound = errors.New("cache: sub-document path not found")
	ErrPathMismatch = errors.New("cache: sub-document path type mismatch")
	ErrNotJSON      = errors.New("cache: document is not JSON")
)

// SubdocGet returns the value at path inside the document.
func (h *HashTable) SubdocGet(key, path string, now int64, f *Fetched) (any, error) {
	p, ok := value.ParsePath(path)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrPathInvalid, path)
	}
	st := h.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	it, exists := st.entry(key, f)
	if !exists || it.Deleted || it.expired(now) {
		return nil, ErrKeyNotFound
	}
	if !h.resident(st, it, f) {
		return nil, ErrValueEvicted
	}
	doc, isJSON := value.Parse(it.Value)
	if !isJSON {
		return nil, ErrNotJSON
	}
	it.nru = 0
	v := p.Eval(doc)
	if value.IsMissing(v) {
		return nil, ErrPathNotFound
	}
	return v, nil
}

// subdocMutate applies fn to the parsed document under the key's
// stripe lock and stores the result through the normal mutation path
// (CAS checks, lock checks, rev/seqno assignment, observer
// notification).
func (h *HashTable) subdocMutate(ctx context.Context, key string, casCheck uint64, now int64, f *Fetched, fn func(doc any) (any, error)) (Item, error) {
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
	doc, isJSON := value.Parse(it.Value)
	if !isJSON {
		return Item{}, ErrNotJSON
	}
	nd, err := fn(doc)
	if err != nil {
		return Item{}, err
	}
	return h.storeStriped(ctx, st, it, key, value.Marshal(nd), it.Flags, it.Expiry, casCheck, now, storeSet)
}

// SubdocSet writes v at path, creating intermediate objects as needed.
func (h *HashTable) SubdocSet(ctx context.Context, key, path string, v any, casCheck uint64, now int64, f *Fetched) (Item, error) {
	p, ok := value.ParsePath(path)
	if !ok || p.Len() == 0 {
		return Item{}, fmt.Errorf("%w: %q", ErrPathInvalid, path)
	}
	return h.subdocMutate(ctx, key, casCheck, now, f, func(doc any) (any, error) {
		nd, applied := p.Set(doc, v)
		if !applied {
			return nil, fmt.Errorf("%w: %q", ErrPathMismatch, path)
		}
		return nd, nil
	})
}

// SubdocRemove deletes the field at path.
func (h *HashTable) SubdocRemove(ctx context.Context, key, path string, casCheck uint64, now int64, f *Fetched) (Item, error) {
	p, ok := value.ParsePath(path)
	if !ok || p.Len() == 0 {
		return Item{}, fmt.Errorf("%w: %q", ErrPathInvalid, path)
	}
	return h.subdocMutate(ctx, key, casCheck, now, f, func(doc any) (any, error) {
		nd, removed := p.Delete(doc)
		if !removed {
			return nil, fmt.Errorf("%w: %q", ErrPathNotFound, path)
		}
		return nd, nil
	})
}

// SubdocArrayAppend appends v to the array at path.
func (h *HashTable) SubdocArrayAppend(ctx context.Context, key, path string, v any, casCheck uint64, now int64, f *Fetched) (Item, error) {
	p, ok := value.ParsePath(path)
	if !ok {
		return Item{}, fmt.Errorf("%w: %q", ErrPathInvalid, path)
	}
	return h.subdocMutate(ctx, key, casCheck, now, f, func(doc any) (any, error) {
		cur := p.Eval(doc)
		arr, isArr := cur.([]any)
		if value.IsMissing(cur) {
			arr = nil // create the array
		} else if !isArr {
			return nil, fmt.Errorf("%w: %q is not an array", ErrPathMismatch, path)
		}
		nd, applied := p.Set(doc, append(arr, v))
		if !applied {
			return nil, fmt.Errorf("%w: %q", ErrPathMismatch, path)
		}
		return nd, nil
	})
}

// SubdocCounter atomically adds delta to the number at path (creating
// it as delta if absent) and returns the new value.
func (h *HashTable) SubdocCounter(ctx context.Context, key, path string, delta float64, casCheck uint64, now int64, f *Fetched) (float64, Item, error) {
	p, ok := value.ParsePath(path)
	if !ok || p.Len() == 0 {
		return 0, Item{}, fmt.Errorf("%w: %q", ErrPathInvalid, path)
	}
	var result float64
	it, err := h.subdocMutate(ctx, key, casCheck, now, f, func(doc any) (any, error) {
		cur := p.Eval(doc)
		switch {
		case value.IsMissing(cur):
			result = delta
		default:
			f, isNum := value.AsNumber(cur)
			if !isNum {
				return nil, fmt.Errorf("%w: %q is not a number", ErrPathMismatch, path)
			}
			result = f + delta
		}
		nd, applied := p.Set(doc, result)
		if !applied {
			return nil, fmt.Errorf("%w: %q", ErrPathMismatch, path)
		}
		return nd, nil
	})
	return result, it, err
}
