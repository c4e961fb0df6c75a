package rest

import (
	"cmp"
	"net/http"
	"runtime"
	"slices"
	"time"

	"couchgo/internal/buildinfo"
	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/events"
	"couchgo/internal/health"
	"couchgo/internal/metrics"
)

// processStart anchors couchgo_uptime_seconds; package init is close
// enough to process start for an observability gauge.
var processStart = time.Now()

// NodeSnapshot is everything one process reports about itself, built
// by (*Server).snapshot and by nothing else. Every read surface is a
// renderer of it: GET /stats/detail and the "metrics" federation
// domain (so each value under GET /cluster/metrics "nodes") are its
// JSON form, GET /metrics writes its derived gauges after the
// registry's text form, GET /health and GET /buckets/{b}/stats serve
// its Health and Buckets fields, and cbtop decodes it back into this
// type.
type NodeSnapshot struct {
	Node         string                      `json:"node"`
	Server       ServerInfo                  `json:"server"`
	Orchestrator cmap.NodeID                 `json:"orchestrator"`
	Nodes        []LogicalNode               `json:"nodes"`
	Buckets      map[string][]core.NodeStats `json:"buckets"`
	// DCPLag is items-remaining per bucket and stream name, summed
	// over the process's logical nodes — the only place it is summed.
	DCPLag      map[string]map[string]uint64 `json:"dcp_lag"`
	Metrics     metrics.Snapshot             `json:"metrics"`
	SlowQueries SlowQueries                  `json:"slow_queries"`
	Health      Health                       `json:"health"`
	Events      events.Stats                 `json:"events"`
}

// ServerInfo identifies the build and how long it has been up.
type ServerInfo struct {
	Version       string  `json:"version"`
	Go            string  `json:"go"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// LogicalNode is one node of the process's in-memory cluster.
type LogicalNode struct {
	ID       cmap.NodeID `json:"id"`
	Services string      `json:"services"`
	Alive    bool        `json:"alive"`
}

// SlowQueries is the slow-query log with its cutoff and lifetime count.
type SlowQueries struct {
	ThresholdMS float64             `json:"threshold_ms"`
	Total       uint64              `json:"total"`
	Entries     []metrics.SlowQuery `json:"entries"`
}

// Health is the watchdog's published view: GET /health, the "health"
// federation domain and NodeSnapshot.Health. Without a watchdog it is
// a liveness probe: ok, no checks.
type Health struct {
	Status health.State         `json:"status"`
	Checks []health.CheckStatus `json:"checks"`
}

func (s *Server) healthBlock() Health {
	h := Health{Checks: []health.CheckStatus{}}
	if s.health != nil {
		h.Status = s.health.State()
		h.Checks = append(h.Checks, s.health.Snapshot()...)
	}
	return h
}

func (s *Server) logicalNodes() []LogicalNode {
	var out []LogicalNode
	for _, n := range s.c.Nodes() {
		out = append(out, LogicalNode{ID: n.ID(), Services: n.Services().String(), Alive: n.Alive()})
	}
	return out
}

func (s *Server) snapshot() *NodeSnapshot {
	n := &NodeSnapshot{
		Node: s.node(),
		Server: ServerInfo{
			Version:       buildinfo.Version,
			Go:            runtime.Version(),
			UptimeSeconds: time.Since(processStart).Seconds(),
		},
		Orchestrator: s.c.Orchestrator(),
		Nodes:        s.logicalNodes(),
		Buckets:      map[string][]core.NodeStats{},
		DCPLag:       map[string]map[string]uint64{},
		Metrics:      metrics.Default.Snapshot(),
		SlowQueries: SlowQueries{
			ThresholdMS: float64(s.c.SlowQueryThreshold().Milliseconds()),
			Total:       s.c.SlowQueryTotal(),
			Entries:     s.c.SlowQueries(),
		},
		Health: s.healthBlock(),
		Events: events.Default.Stats(),
	}
	for _, b := range s.c.BucketNames() {
		stats, lags := s.c.Stats(b), map[string]uint64{}
		for _, st := range stats {
			for stream, lag := range st.DCPLags {
				lags[stream] += lag
			}
		}
		n.Buckets[b], n.DCPLag[b] = stats, lags
	}
	return n
}

// SortedKeys returns a map's keys in ascending order, so renderings of
// it (the exposition text, cbtop's frames) are stable.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// writeGauges emits the gauges derived from cluster state, family by
// family so each family's samples stay contiguous, as the exposition
// format requires. None of these names is also a registry family.
func (n *NodeSnapshot) writeGauges(tw *metrics.TextWriter) {
	buckets := SortedKeys(n.Buckets)
	perNode := func(name string, v func(core.NodeStats) float64) {
		for _, b := range buckets {
			for _, st := range n.Buckets[b] {
				tw.Gauge(name, metrics.LabelString("bucket", b, "node", string(st.ID)), v(st))
			}
		}
	}
	perNode("couchgo_bucket_items", func(st core.NodeStats) float64 { return float64(st.Items) })
	perNode("couchgo_bucket_mem_used_bytes", func(st core.NodeStats) float64 { return float64(st.MemUsed) })
	perNode("couchgo_bucket_tombstones", func(st core.NodeStats) float64 { return float64(st.Tombstones) })
	perNode("couchgo_bucket_nonresident_items", func(st core.NodeStats) float64 { return float64(st.NonResident) })
	perNode("couchgo_bucket_queue_depth", func(st core.NodeStats) float64 { return float64(st.QueueDepth) })
	perNode("couchgo_storage_file_bytes", func(st core.NodeStats) float64 { return float64(st.DiskBytes) })
	perNode("couchgo_storage_live_bytes", func(st core.NodeStats) float64 { return float64(st.DiskLiveBytes) })
	for _, b := range buckets {
		for _, stream := range SortedKeys(n.DCPLag[b]) {
			tw.Gauge("couchgo_dcp_lag", metrics.LabelString("bucket", b, "stream", stream), float64(n.DCPLag[b][stream]))
		}
	}
	for _, ln := range n.Nodes {
		up := 0.0
		if ln.Alive {
			up = 1
		}
		tw.Gauge("couchgo_node_up", metrics.LabelString("node", string(ln.ID)), up)
	}
	tw.Gauge("couchgo_slow_queries_retained", "", float64(len(n.SlowQueries.Entries)))
	tw.Counter("couchgo_events_published_total", "", n.Events.Published)
	tw.Counter("couchgo_events_dropped_total", "", n.Events.Dropped)
	tw.Gauge("couchgo_events_subscribers", "", float64(n.Events.Subscribers))
	for _, t := range SortedKeys(n.Events.Retained) {
		tw.Gauge("couchgo_events_retained", metrics.LabelString("type", string(t)), float64(n.Events.Retained[t]))
	}
}

// handleMetrics serves Prometheus text exposition format: everything
// registered in metrics.Default, plus the snapshot's derived gauges —
// computed at scrape time, so they can never drift from the truth.
//
// The Content-Type is exactly the exposition spec's `text/plain;
// version=0.0.4` — some scrapers match the header verbatim — and
// non-GET methods get an explicit 405 with an Allow header.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, map[string]any{"error": "method not allowed; /metrics is GET-only"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	n := s.snapshot()
	tw := metrics.NewTextWriter(w)
	tw.Gauge("couchgo_build_info",
		metrics.LabelString("goversion", n.Server.Go, "version", n.Server.Version), 1)
	tw.Gauge("couchgo_uptime_seconds", "", n.Server.UptimeSeconds)
	metrics.Default.WriteTo(tw)
	n.writeGauges(tw)
}

func (s *Server) handleStatsDetail(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	bucket := r.PathValue("bucket")
	nodes, ok := s.snapshot().Buckets[bucket]
	if !ok {
		writeErr(w, core.ErrNoSuchBucket)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"bucket": bucket, "nodes": nodes})
}

// healthCode is the HTTP status of a health verdict — 503 only when
// critical — so load balancers and scripts can use /health and
// /cluster/health without parsing the body.
func healthCode(st health.State) int {
	if st == health.Critical {
		return http.StatusServiceUnavailable
	}
	return http.StatusOK
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.healthBlock()
	writeJSON(w, healthCode(h.Status), h)
}
