package rest

import (
	"net/http"
	"strconv"
	"time"

	"couchgo/internal/events"
	"couchgo/internal/health"
)

// SetHealth attaches a watchdog so GET /health reports real check
// states. Without one the endpoint degrades to a liveness probe.
func (s *Server) SetHealth(w *health.Watchdog) { s.health = w }

// handleEvents serves the journal: GET /events?type=&severity=&since=
// &limit=. All filters are optional; bad values are the client's
// problem, not silently ignored.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var f events.Filter
	if v := q.Get("type"); v != "" {
		t := events.Type(v)
		if !events.ValidType(t) {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "unknown event type " + v})
			return
		}
		f.Type = t
	}
	if v := q.Get("severity"); v != "" {
		sev, ok := events.ParseSeverity(v)
		if !ok {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "unknown severity " + v})
			return
		}
		f.MinSeverity = sev
	}
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad since parameter"})
			return
		}
		f.SinceSeq = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad limit parameter"})
			return
		}
		f.Limit = n
	}
	evs := events.Default.Events(f)
	if evs == nil {
		evs = []events.Event{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"events":   evs,
		"last_seq": events.Default.LastSeq(),
	})
}

// handleEventsStream long-polls the journal: GET /events/stream?since=
// &timeout=. It returns as soon as at least one event newer than since
// exists (draining whatever else is immediately available), or an
// empty list at the timeout. Clients loop, feeding last_seq back as
// since — cbtop's event tail runs on this.
func (s *Server) handleEventsStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since := events.Default.LastSeq()
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad since parameter"})
			return
		}
		since = n
	}
	timeout := 30 * time.Second
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad timeout parameter"})
			return
		}
		if d > time.Minute {
			d = time.Minute
		}
		timeout = d
	}

	respond := func(evs []events.Event) {
		if evs == nil {
			evs = []events.Event{}
		}
		last := since
		for _, e := range evs {
			if e.Seq > last {
				last = e.Seq
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"events": evs, "last_seq": last})
	}

	// Subscribe before reading the backlog: an event published between
	// the two shows up in the backlog read, and one published after is
	// caught by the subscription — no gap either way.
	sub := events.Default.Subscribe(64)
	defer sub.Close()
	if backlog := events.Default.Events(events.Filter{SinceSeq: since}); len(backlog) > 0 {
		respond(backlog)
		return
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case e := <-sub.C():
			if e.Seq <= since {
				continue
			}
			evs := []events.Event{e}
			// Drain whatever else is already buffered so a burst comes
			// back as one response.
			for {
				select {
				case more := <-sub.C():
					if more.Seq > since {
						evs = append(evs, more)
					}
					continue
				default:
				}
				break
			}
			respond(evs)
			return
		case <-timer.C:
			respond(nil)
			return
		case <-r.Context().Done():
			return
		}
	}
}
