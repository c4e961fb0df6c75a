package feed

import (
	"fmt"
	"sort"
	"sync"

	"couchgo/internal/dcp"
)

// Hub multiplexes named feeds over one set of vBucket producers. A
// bucket has one, shared by the GSI projector, every FTS index and the
// analytics shadow, and each node's view engine has its own over the
// node's active copies: producers register once via AttachVB, each
// consumer subscribes by name, and the hub attaches every feed to every
// producer and keeps both sides reconciled as either set changes.
type Hub struct {
	mu        sync.Mutex
	closed    bool
	producers map[int]dcp.StreamSource
	feeds     map[string]*Feed
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{
		producers: make(map[int]dcp.StreamSource),
		feeds:     make(map[string]*Feed),
	}
}

// AttachVB registers (or replaces) a vBucket's producer and attaches
// every subscribed feed to it, returning the first feed's error. A feed
// that fails leaves the others attached. Idempotent for an unchanged
// producer.
func (h *Hub) AttachVB(vb int, p dcp.StreamSource) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrClosed
	}
	h.producers[vb] = p
	feeds := h.feedListLocked()
	h.mu.Unlock()
	var first error
	for _, f := range feeds {
		if err := f.Attach(vb, p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DetachVB forgets a vBucket's producer and detaches every feed from
// it, dropping resume state.
func (h *Hub) DetachVB(vb int) {
	h.mu.Lock()
	delete(h.producers, vb)
	feeds := h.feedListLocked()
	h.mu.Unlock()
	for _, f := range feeds {
		f.Detach(vb)
	}
}

// Subscribe creates a feed named name delivering to c and attaches it
// to every registered producer. The name doubles as the DCP stream
// name; service labels the feed's metrics and stats.
func (h *Hub) Subscribe(name, service string, c Consumer) (*Feed, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := h.feeds[name]; ok {
		h.mu.Unlock()
		return nil, fmt.Errorf("feed: duplicate subscription %q", name)
	}
	f := New(name, service, c)
	h.feeds[name] = f
	producers := make(map[int]dcp.StreamSource, len(h.producers))
	for vb, p := range h.producers {
		producers[vb] = p
	}
	h.mu.Unlock()
	for vb, p := range producers {
		if err := f.Attach(vb, p); err != nil {
			h.Unsubscribe(name)
			return nil, err
		}
	}
	return f, nil
}

// Unsubscribe removes and closes a named feed.
func (h *Hub) Unsubscribe(name string) {
	h.mu.Lock()
	f := h.feeds[name]
	delete(h.feeds, name)
	h.mu.Unlock()
	if f != nil {
		f.Close()
	}
}

// Producers returns a copy of the registered producer set (index
// backfill iterates it).
func (h *Hub) Producers() map[int]dcp.StreamSource {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int]dcp.StreamSource, len(h.producers))
	for vb, p := range h.producers {
		out[vb] = p
	}
	return out
}

// Stats describes every subscribed feed, sorted by name.
func (h *Hub) Stats() []Stat {
	h.mu.Lock()
	feeds := h.feedListLocked()
	h.mu.Unlock()
	out := make([]Stat, 0, len(feeds))
	for _, f := range feeds {
		processed := f.Processed()
		out = append(out, Stat{
			Service:   f.service,
			Name:      f.name,
			VBuckets:  len(processed),
			Processed: processed,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close closes every feed; further Attach/Subscribe calls fail.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	feeds := h.feedListLocked()
	h.feeds = make(map[string]*Feed)
	h.producers = make(map[int]dcp.StreamSource)
	h.mu.Unlock()
	for _, f := range feeds {
		f.Close()
	}
}

// feedListLocked snapshots the feed set; callers hold h.mu.
func (h *Hub) feedListLocked() []*Feed {
	out := make([]*Feed, 0, len(h.feeds))
	for _, f := range h.feeds {
		out = append(out, f)
	}
	return out
}
