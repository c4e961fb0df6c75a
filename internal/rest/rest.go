// Package rest exposes a couchgo cluster over HTTP: the admin surface
// (cluster map, rebalance, failover), the KV document API, view
// queries (§3.1.2's REST API with its stale parameter), the N1QL query
// service endpoint, and full-text search. cmd/cbserver serves it;
// cmd/cbq talks to the query endpoint.
package rest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"couchgo/internal/analytics"
	"couchgo/internal/cache"
	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/executor"
	"couchgo/internal/feed"
	"couchgo/internal/fts"
	"couchgo/internal/health"
	"couchgo/internal/trace"
	"couchgo/internal/views"
)

// Server is the HTTP facade over a cluster.
type Server struct {
	c      *core.Cluster
	mux    *http.ServeMux
	health *health.Watchdog

	// kvClients overrides the per-bucket document client — cbserver's
	// network mode installs a hybrid smart client here (loopback to
	// the local node, sockets to peers) so REST document requests
	// route cluster-wide. Set before serving; read-only afterwards.
	kvClients map[string]*core.Client
	// fed, when set, labels this process's payloads and fans
	// /cluster/* and stitched-trace fetches out to the cluster's
	// members (see federation.go).
	fed Federation
}

// NewServer builds the handler tree for a cluster.
func NewServer(c *core.Cluster) *Server {
	s := &Server{c: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /cluster", s.handleCluster)
	s.mux.HandleFunc("POST /cluster/rebalance", s.handleRebalance)
	s.mux.HandleFunc("POST /cluster/failover", s.handleFailover)
	s.mux.HandleFunc("GET /buckets/{bucket}/stats", s.handleStats)
	s.mux.HandleFunc("GET /buckets/{bucket}/feeds", s.handleFeeds)
	s.mux.HandleFunc("GET /buckets/{bucket}/feeds/{service}", s.handleFeeds)
	s.mux.HandleFunc("GET /buckets/{bucket}/docs/{key}", s.handleGet)
	s.mux.HandleFunc("PUT /buckets/{bucket}/docs/{key}", s.handlePut)
	s.mux.HandleFunc("DELETE /buckets/{bucket}/docs/{key}", s.handleDelete)
	s.mux.HandleFunc("PUT /buckets/{bucket}/views/{view}", s.handleDefineView)
	s.mux.HandleFunc("GET /buckets/{bucket}/views/{view}", s.wholeData(s.handleQueryView))
	s.mux.HandleFunc("DELETE /buckets/{bucket}/views/{view}", s.handleDropView)
	s.mux.HandleFunc("PUT /buckets/{bucket}/fts/{index}", s.wholeData(s.handleDefineFTS))
	s.mux.HandleFunc("GET /buckets/{bucket}/fts/{index}", s.wholeData(s.handleSearch))
	s.mux.HandleFunc("POST /query", s.wholeData(s.handleQuery))
	s.mux.HandleFunc("POST /buckets/{bucket}/analytics/enable", s.handleAnalyticsEnable)
	s.mux.HandleFunc("POST /buckets/{bucket}/analytics/query", s.handleAnalyticsQuery)
	// /metrics registers without a method verb: Prometheus scrapers get
	// an explicit 405 + Allow header on non-GET, not the mux's generic
	// one, and the handler owns the exposition Content-Type.
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /stats/detail", s.handleStatsDetail)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	s.mux.HandleFunc("GET /events/stream", s.handleEventsStream)
	s.mux.HandleFunc("GET /health", s.handleHealth)
	s.mux.HandleFunc("GET /traces", s.handleTraces)
	s.mux.HandleFunc("GET /traces/{id}", s.handleTrace)
	s.mux.HandleFunc("POST /traces/config", s.handleTraceConfig)
	s.mux.HandleFunc("GET /cluster/metrics", s.handleClusterMetrics)
	s.mux.HandleFunc("GET /cluster/health", s.handleClusterHealth)
	s.mux.HandleFunc("GET /cluster/events", s.handleClusterEvents)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, cache.ErrKeyNotFound), errors.Is(err, core.ErrNoSuchBucket),
		errors.Is(err, views.ErrNoSuchView), errors.Is(err, fts.ErrNoSuchIndex):
		status = http.StatusNotFound
	case errors.Is(err, cache.ErrCASMismatch), errors.Is(err, cache.ErrKeyExists),
		errors.Is(err, cache.ErrLocked), errors.Is(err, ErrCoordinatorTopology), errors.Is(err, ErrPartialData):
		status = http.StatusConflict
	case errors.Is(err, core.ErrNoQueryNode), errors.Is(err, core.ErrNoIndexNode):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"error": err.Error()})
}

// --- admin ---

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"orchestrator": s.c.Orchestrator(),
		"nodes":        s.logicalNodes(),
	})
}

// ErrCoordinatorTopology refuses a topology change on a networked
// process: its cluster map is decided on the seed, and the local
// cluster under it holds this process's one node — failing that node
// over or rebalancing it would cut the process off from a map that
// still routes to it.
var ErrCoordinatorTopology = errors.New("rest: topology is owned by the cluster coordinator; failover and rebalance are not available on a networked (-kv-addr) process")

// ErrPartialData refuses a query on a process of a multi-member
// networked cluster: its index, view and full-text services see only
// the vBuckets this process holds, so an answer would silently cover
// one member's share of the bucket.
var ErrPartialData = errors.New("rest: this process indexes only its own share of the bucket; N1QL, view and full-text queries are not available on a multi-member networked (-kv-addr) cluster")

// wholeData guards a handler that answers from this process's data
// alone: it serves while the cluster map names no other member (an
// in-process cluster, or a solo networked process).
func (s *Server) wholeData(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if len(s.members()) > 1 {
			writeErr(w, ErrPartialData)
			return
		}
		h(w, r)
	}
}

func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if s.fed != nil {
		writeErr(w, ErrCoordinatorTopology)
		return
	}
	if err := s.c.Rebalance(); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "rebalanced"})
}

func (s *Server) handleFailover(w http.ResponseWriter, r *http.Request) {
	if s.fed != nil {
		writeErr(w, ErrCoordinatorTopology)
		return
	}
	node := r.URL.Query().Get("node")
	if node == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "node parameter required"})
		return
	}
	if err := s.c.Failover(cmap.NodeID(node)); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "failed over", "node": node})
}

// feedServices whitelists the {service} path segment of the feeds
// endpoint; anything else is a 404, not an empty 200.
var feedServices = map[string]bool{
	"gsi": true, "views": true, "fts": true, "analytics": true,
}

func (s *Server) handleFeeds(w http.ResponseWriter, r *http.Request) {
	bucket := r.PathValue("bucket")
	stats, err := s.c.FeedStats(bucket)
	if err != nil {
		writeErr(w, err) // unknown bucket -> 404
		return
	}
	if service := r.PathValue("service"); service != "" {
		if !feedServices[service] {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": "rest: no such feed service " + service})
			return
		}
		filtered := stats[:0]
		for _, st := range stats {
			if st.Service == service {
				filtered = append(filtered, st)
			}
		}
		stats = filtered
	}
	if stats == nil {
		stats = []feed.Stat{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"bucket": bucket, "feeds": stats})
}

// --- KV ---

// SetKVClient routes a bucket's document endpoints through cl instead
// of an in-process OpenBucket client. Must be called before serving.
func (s *Server) SetKVClient(bucket string, cl *core.Client) {
	if s.kvClients == nil {
		s.kvClients = map[string]*core.Client{}
	}
	s.kvClients[bucket] = cl
}

func (s *Server) client(bucket string) (*core.Client, error) {
	if cl, ok := s.kvClients[bucket]; ok {
		return cl, nil
	}
	return s.c.OpenBucket(bucket)
}

// startDocSpan samples a REST-level root span for a document op.
// When sampled, the trace ID goes back in X-Trace-Id — the handle a
// client feeds to GET /traces/{id} — and the span rides the request
// ctx so the wire client propagates it to whichever node serves the
// key (and onward to replicas).
func startDocSpan(w http.ResponseWriter, r *http.Request, name string) (*http.Request, *trace.Span) {
	ctx, span := trace.Start(r.Context(), name)
	if span == nil {
		return r, nil
	}
	span.Annotate("key", r.PathValue("key"))
	w.Header().Set("X-Trace-Id", strconv.FormatUint(span.Trace().ID, 10))
	return r.WithContext(ctx), span
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	cl, err := s.client(r.PathValue("bucket"))
	if err != nil {
		writeErr(w, err)
		return
	}
	r, span := startDocSpan(w, r, "rest:get")
	defer span.End()
	it, err := cl.Get(r.Context(), r.PathValue("key"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-CAS", strconv.FormatUint(it.CAS, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(it.Value)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	cl, err := s.client(r.PathValue("bucket"))
	if err != nil {
		writeErr(w, err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 20<<20))
	if err != nil {
		writeErr(w, err)
		return
	}
	var casCheck uint64
	if h := r.Header.Get("X-CAS"); h != "" {
		casCheck, err = strconv.ParseUint(h, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad X-CAS header"})
			return
		}
	}
	dur := core.DurabilityOptions{}
	if n, _ := strconv.Atoi(r.URL.Query().Get("replicate_to")); n > 0 {
		dur.ReplicateTo = n
	}
	if r.URL.Query().Get("persist_to") == "true" {
		dur.PersistTo = true
	}
	var expiry int64
	if e := r.URL.Query().Get("expiry"); e != "" {
		expiry, _ = strconv.ParseInt(e, 10, 64)
	}
	r, span := startDocSpan(w, r, "rest:put")
	defer span.End()
	it, err := cl.SetWithOptions(r.Context(), r.PathValue("key"), body, 0, expiry, casCheck, dur)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"cas": strconv.FormatUint(it.CAS, 10), "seqno": it.Seqno})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	cl, err := s.client(r.PathValue("bucket"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var casCheck uint64
	if h := r.Header.Get("X-CAS"); h != "" {
		casCheck, _ = strconv.ParseUint(h, 10, 64)
	}
	r, span := startDocSpan(w, r, "rest:delete")
	defer span.End()
	if err := cl.Delete(r.Context(), r.PathValue("key"), casCheck); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "deleted"})
}

// --- views ---

func (s *Server) handleDefineView(w http.ResponseWriter, r *http.Request) {
	var def struct {
		Filter string `json:"filter"`
		Key    string `json:"key"`
		Value  string `json:"value"`
		Reduce string `json:"reduce"`
	}
	if err := json.NewDecoder(r.Body).Decode(&def); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	err := s.c.DefineView(r.PathValue("bucket"), views.Definition{
		Name:   r.PathValue("view"),
		Map:    views.MapSpec{Filter: def.Filter, Key: def.Key, Value: def.Value},
		Reduce: def.Reduce,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"status": "created"})
}

func (s *Server) handleDropView(w http.ResponseWriter, r *http.Request) {
	if err := s.c.DropView(r.PathValue("bucket"), r.PathValue("view")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "dropped"})
}

// handleQueryView implements the §3.1.2 REST query surface, e.g.
// ?key="Dipti"&stale=false.
func (s *Server) handleQueryView(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opts := views.QueryOptions{}
	parseJSONParam := func(name string) (any, bool, error) {
		raw := q.Get(name)
		if raw == "" {
			return nil, false, nil
		}
		var v any
		if err := json.Unmarshal([]byte(raw), &v); err != nil {
			return nil, false, fmt.Errorf("bad %s parameter: %w", name, err)
		}
		return v, true, nil
	}
	var err error
	if opts.Key, opts.HasKey, err = parseJSONParam("key"); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	if opts.StartKey, opts.HasStart, err = parseJSONParam("startkey"); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	if opts.EndKey, opts.HasEnd, err = parseJSONParam("endkey"); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	if keysRaw, ok, err := parseJSONParam("keys"); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	} else if ok {
		if arr, isArr := keysRaw.([]any); isArr {
			opts.Keys = arr
		}
	}
	opts.InclusiveEnd = q.Get("inclusive_end") != "false"
	opts.Descending = q.Get("descending") == "true"
	opts.Reduce = q.Get("reduce") == "true"
	opts.Group = q.Get("group") == "true"
	if n, _ := strconv.Atoi(q.Get("limit")); n > 0 {
		opts.Limit = n
	}
	if n, _ := strconv.Atoi(q.Get("skip")); n > 0 {
		opts.Skip = n
	}
	switch q.Get("stale") {
	case "false":
		opts.Stale = views.StaleFalse
	case "ok":
		opts.Stale = views.StaleOK
	default:
		opts.Stale = views.StaleUpdateAfter
	}
	rows, err := s.c.QueryView(r.Context(), r.PathValue("bucket"), r.PathValue("view"), opts)
	if err != nil {
		writeErr(w, err)
		return
	}
	out := make([]map[string]any, 0, len(rows))
	for _, row := range rows {
		m := map[string]any{"key": row.Key, "value": row.Value}
		if row.ID != "" {
			m["id"] = row.ID
		}
		out = append(out, m)
	}
	writeJSON(w, http.StatusOK, map[string]any{"total_rows": len(out), "rows": out})
}

// --- N1QL ---

// handleQuery is the query service endpoint: POST {"statement": "...",
// "args": {...}, "scan_consistency": "request_plus", "profile":
// "timings"}.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Statement       string         `json:"statement"`
		Args            map[string]any `json:"args"`
		ScanConsistency string         `json:"scan_consistency"`
		Profile         string         `json:"profile"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	opts := executor.Options{Params: req.Args, Ctx: r.Context()}
	if strings.EqualFold(req.ScanConsistency, "request_plus") {
		opts.Consistency = executor.RequestPlus
	}
	profiling := strings.EqualFold(req.Profile, "timings")
	if profiling {
		opts.Prof = executor.NewProfile()
	}
	t0 := time.Now()
	res, err := s.c.Query(req.Statement, opts)
	if err != nil {
		// Topology problems are the server's fault, not the request's.
		if errors.Is(err, core.ErrNoQueryNode) || errors.Is(err, core.ErrNoIndexNode) {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	out := map[string]any{
		"status":        res.Status,
		"results":       res.Rows,
		"mutationCount": res.MutationCount,
	}
	if profiling {
		out["profile"] = map[string]any{
			"elapsedTime":      time.Since(t0).String(),
			"executionTimings": res.Profile,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// --- tracing ---

// handleTraces lists retained traces, newest first. Filter with
// ?op=kv:set (exact root-op match) or ?slow=true.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	sums := trace.Default.Traces()
	op := r.URL.Query().Get("op")
	// Root ops are always "service:verb" (kv:set, query:exec, ...); a
	// filter without the colon can never match, so reject it loudly
	// instead of returning a confusingly empty list.
	if op != "" && !strings.Contains(op, ":") {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("bad op filter %q: want service:verb", op)})
		return
	}
	slowOnly := r.URL.Query().Get("slow") == "true"
	out := make([]trace.Summary, 0, len(sums))
	for _, t := range sums {
		if op != "" && t.Op != op {
			continue
		}
		if slowOnly && !t.Slow {
			continue
		}
		out = append(out, t)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"rate":   trace.Default.Rate(),
		"traces": out,
	})
}

// handleTrace returns one trace's full span tree. With federation
// wired, any node answers for the whole cluster: the trace's
// portions are fetched from every member and stitched into one
// cross-process tree, so the client's write shows its server, DCP,
// and replica spans regardless of which node it asks.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad trace id"})
		return
	}
	if s.fed != nil {
		out, errs := s.stitchedTrace(r.Context(), id)
		if out == nil {
			writeJSON(w, http.StatusNotFound, map[string]any{
				"error":  "no such trace on any reachable member (evicted or never sampled)",
				"errors": errs,
			})
			return
		}
		if len(errs) > 0 {
			out["errors"] = errs
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	t := trace.Default.Get(id)
	if t == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "no such trace (evicted or never sampled)"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":          id,
		"op":          t.Op,
		"start":       t.Start,
		"duration_us": t.Duration().Microseconds(),
		"spans":       t.Tree(),
	})
}

// --- analytics (§6.2) ---

func (s *Server) handleAnalyticsEnable(w http.ResponseWriter, r *http.Request) {
	if err := s.c.EnableAnalytics(r.PathValue("bucket")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "enabled"})
}

func (s *Server) handleAnalyticsQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Statement  string         `json:"statement"`
		Args       map[string]any `json:"args"`
		Consistent bool           `json:"consistent"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	bucket := r.PathValue("bucket")
	opts := analytics.QueryOptions{Params: req.Args}
	if req.Consistent {
		opts.WaitSeqnos = s.c.ConsistencyVector(bucket)
	}
	rows, err := s.c.AnalyticsQuery(r.Context(), bucket, req.Statement, opts)
	if err != nil {
		if errors.Is(err, core.ErrNoSuchBucket) {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "success", "results": rows})
}

// --- FTS ---

func (s *Server) handleDefineFTS(w http.ResponseWriter, r *http.Request) {
	var def struct {
		Fields []string `json:"fields"`
	}
	if err := json.NewDecoder(r.Body).Decode(&def); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	eng, err := s.c.FTS(r.PathValue("bucket"))
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := eng.Define(fts.IndexDef{Name: r.PathValue("index"), Fields: def.Fields}); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"status": "created"})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	eng, err := s.c.FTS(r.PathValue("bucket"))
	if err != nil {
		writeErr(w, err)
		return
	}
	q := r.URL.Query()
	text := q.Get("q")
	limit, _ := strconv.Atoi(q.Get("limit"))
	opts := fts.SearchOptions{Limit: limit}
	if q.Get("consistent") == "true" {
		opts.WaitSeqnos = s.c.ConsistencyVector(r.PathValue("bucket"))
	}
	var hits []fts.Hit
	switch q.Get("kind") {
	case "prefix":
		hits, err = eng.SearchPrefix(r.Context(), r.PathValue("index"), text, opts)
	case "phrase":
		hits, err = eng.SearchPhrase(r.Context(), r.PathValue("index"), text, opts)
	default:
		hits, err = eng.SearchTerm(r.Context(), r.PathValue("index"), text, opts)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"hits": hits})
}
