// Cluster-wide observability: every node exposes its local metrics,
// health, events, and trace portions through Observe (served to peers
// over the KV wire as OpFederate requests), and the /cluster/*
// endpoints on any node fan the same fetches out to every member and
// aggregate — so one HTTP request against one node answers for the
// whole cluster.

package rest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"couchgo/internal/events"
	"couchgo/internal/health"
	"couchgo/internal/trace"
)

// Federation is the transport-provided view of the cluster's members
// for observability fan-out. Self is this node's process identity
// (its KV address); Fetch retrieves one named domain from a peer over
// the wire. transport.(*ClusterNode).Federation() implements it; nil
// means single-process mode and the /cluster/* endpoints degrade to a
// one-node cluster.
type Federation interface {
	Self() string
	Nodes() []string
	Fetch(ctx context.Context, node, domain string, payload []byte) ([]byte, error)
}

// SetFederation attaches the cluster fan-out surface. Must be called
// before serving.
func (s *Server) SetFederation(f Federation) { s.fed = f }

// node is the label for this process's own payloads.
func (s *Server) node() string {
	if s.fed != nil {
		return s.fed.Self()
	}
	return "local"
}

// fanoutTimeout bounds each per-peer observability fetch; a stuck
// member turns into an entry in "errors", not a hung aggregate
// endpoint.
const fanoutTimeout = 3 * time.Second

// Observe serves one observability domain for this node. It is the
// callback behind the wire's OpFederate opcode (peers calling in) and
// the local half of every /cluster/* aggregate. The payload is the
// domain's request body (filters, trace ID, config JSON); the reply
// is a JSON object — for "metrics" the NodeSnapshot, for "health" its
// Health block.
func (s *Server) Observe(domain string, payload []byte) ([]byte, error) {
	switch domain {
	case "metrics":
		return json.Marshal(s.snapshot())
	case "health":
		return json.Marshal(s.healthBlock())
	case "events":
		return s.observeEvents(payload)
	case "trace":
		return s.observeTrace(payload)
	case "trace-config":
		return s.observeTraceConfig(payload)
	}
	return nil, fmt.Errorf("rest: unknown observe domain %q", domain)
}

// eventsQuery is the events domain's request payload; zero values
// mean "no filter".
type eventsQuery struct {
	Since    uint64 `json:"since,omitempty"`
	Limit    int    `json:"limit,omitempty"`
	Type     string `json:"type,omitempty"`
	Severity string `json:"severity,omitempty"`
}

// eventsReply is the events domain's reply: this node's journal tail.
type eventsReply struct {
	Node    string         `json:"node"`
	Events  []events.Event `json:"events"`
	LastSeq uint64         `json:"last_seq"`
}

func (s *Server) observeEvents(payload []byte) ([]byte, error) {
	var q eventsQuery
	if len(payload) > 0 {
		if err := json.Unmarshal(payload, &q); err != nil {
			return nil, fmt.Errorf("rest: bad events query: %w", err)
		}
	}
	f := events.Filter{SinceSeq: q.Since, Limit: q.Limit}
	if q.Type != "" {
		t := events.Type(q.Type)
		if !events.ValidType(t) {
			return nil, fmt.Errorf("rest: unknown event type %q", q.Type)
		}
		f.Type = t
	}
	if q.Severity != "" {
		sev, ok := events.ParseSeverity(q.Severity)
		if !ok {
			return nil, fmt.Errorf("rest: unknown severity %q", q.Severity)
		}
		f.MinSeverity = sev
	}
	evs := events.Default.Events(f)
	if evs == nil {
		evs = []events.Event{}
	}
	return json.Marshal(eventsReply{Node: s.node(), Events: evs, LastSeq: events.Default.LastSeq()})
}

// tracePortions is the trace domain's reply: every locally retained
// portion of the requested trace (the live local trace, a foreign
// portion adopted off the wire, or both when a node dialed itself).
type tracePortions struct {
	Node     string         `json:"node"`
	Portions []trace.Export `json:"portions"`
}

func (s *Server) observeTrace(payload []byte) ([]byte, error) {
	var q struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(payload, &q); err != nil {
		return nil, fmt.Errorf("rest: bad trace query: %w", err)
	}
	node := s.node()
	out := tracePortions{Node: node, Portions: []trace.Export{}}
	for _, t := range trace.Default.Portions(q.ID) {
		out.Portions = append(out.Portions, t.Export(node))
	}
	return json.Marshal(out)
}

func (s *Server) observeTraceConfig(payload []byte) ([]byte, error) {
	cfg, err := trace.Default.ApplyConfigJSON(payload)
	if err != nil {
		return nil, err
	}
	publishTraceConfigEvent(cfg)
	return json.Marshal(traceConfigState(s.node()))
}

func publishTraceConfigEvent(cfg trace.Config) {
	e := events.New(events.Config, events.SevInfo, "trace config changed")
	e.Service = "rest"
	e.Fields = map[string]string{"rate": strconv.Itoa(trace.Default.Rate())}
	if cfg.Clear {
		e.Fields["cleared"] = "true"
	}
	events.Default.Publish(e)
}

func traceConfigState(node string) map[string]any {
	thresholds := map[string]string{}
	for op, d := range trace.Default.Thresholds() {
		thresholds[op] = d.String()
	}
	return map[string]any{
		"node":       node,
		"rate":       trace.Default.Rate(),
		"thresholds": thresholds,
	}
}

// --- fan-out ---

// members is the fan-out target list: the cluster map's nodes, or
// just this process when federation isn't wired.
func (s *Server) members() []string {
	if s.fed == nil {
		return []string{s.node()}
	}
	return s.fed.Nodes()
}

// gather collects one domain from every member in parallel, decoded
// into T: this node answers by function call, peers over the wire.
// Members that are unreachable, fail, or answer something that does
// not decode land in the errors map under their node label.
func gather[T any](ctx context.Context, s *Server, domain string, payload []byte) (map[string]T, map[string]string) {
	results := map[string]T{}
	errs := map[string]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, node := range s.members() {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			var raw []byte
			var err error
			if s.fed == nil || node == s.fed.Self() {
				raw, err = s.Observe(domain, payload)
			} else {
				fctx, cancel := context.WithTimeout(ctx, fanoutTimeout)
				raw, err = s.fed.Fetch(fctx, node, domain, payload)
				cancel()
			}
			var v T
			if err == nil {
				if err = json.Unmarshal(raw, &v); err != nil {
					err = fmt.Errorf("bad %s payload: %w", domain, err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[node] = err.Error()
				return
			}
			results[node] = v
		}(node)
	}
	wg.Wait()
	return results, errs
}

// --- aggregate endpoints ---

// ClusterMetrics is the body of GET /cluster/metrics: every member's
// NodeSnapshot keyed by node. A single process is the one-member case.
type ClusterMetrics struct {
	Nodes  map[string]NodeSnapshot `json:"nodes"`
	Errors map[string]string       `json:"errors"`
}

func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	nodes, errs := gather[NodeSnapshot](r.Context(), s, "metrics", nil)
	writeJSON(w, http.StatusOK, ClusterMetrics{Nodes: nodes, Errors: errs})
}

// ClusterHealth is the body of GET /cluster/health: a worst-of roll-up
// across members. A member in Errors counts as critical — a node that
// cannot answer a health probe is not healthy — and the HTTP status
// carries the cluster verdict.
type ClusterHealth struct {
	Status health.State      `json:"status"`
	Nodes  map[string]Health `json:"nodes"`
	Errors map[string]string `json:"errors"`
}

func (s *Server) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	out := ClusterHealth{}
	out.Nodes, out.Errors = gather[Health](r.Context(), s, "health", nil)
	for _, h := range out.Nodes {
		out.Status = max(out.Status, h.Status)
	}
	if len(out.Errors) > 0 {
		out.Status = health.Critical
	}
	writeJSON(w, healthCode(out.Status), out)
}

// ClusterEvent is one journal entry in the merged cluster tail,
// tagged with the member it came from (Event.Node is the logical
// node that emitted it; Origin is the process that retained it).
type ClusterEvent struct {
	Origin string `json:"origin"`
	events.Event
}

// ClusterEvents is the body of GET /cluster/events.
type ClusterEvents struct {
	Events []ClusterEvent    `json:"events"`
	Errors map[string]string `json:"errors"`
}

// handleClusterEvents serves GET /cluster/events: each member's
// journal tail merged into one time-ordered list. Per-node seqs are
// independent, so the merge orders by timestamp (seq breaks ties
// from the same origin).
func (s *Server) handleClusterEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad limit parameter"})
			return
		}
		limit = n
	}
	payload, err := json.Marshal(eventsQuery{
		Limit:    limit,
		Type:     q.Get("type"),
		Severity: q.Get("severity"),
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	results, errs := gather[eventsReply](r.Context(), s, "events", payload)
	merged := []ClusterEvent{}
	for node, v := range results {
		for _, e := range v.Events {
			merged = append(merged, ClusterEvent{Origin: node, Event: e})
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if !merged[i].Time.Equal(merged[j].Time) {
			return merged[i].Time.Before(merged[j].Time)
		}
		if merged[i].Origin != merged[j].Origin {
			return merged[i].Origin < merged[j].Origin
		}
		return merged[i].Seq < merged[j].Seq
	})
	if limit > 0 && len(merged) > limit {
		merged = merged[len(merged)-limit:] // keep the newest tail
	}
	writeJSON(w, http.StatusOK, ClusterEvents{Events: merged, Errors: errs})
}

// stitchedTrace collects every member's portions of one trace and
// grafts them into a single cross-process tree. Returns nil when no
// member retains any portion.
func (s *Server) stitchedTrace(ctx context.Context, id uint64) (map[string]any, map[string]string) {
	payload, _ := json.Marshal(map[string]any{"id": id})
	results, errs := gather[tracePortions](ctx, s, "trace", payload)
	var portions []trace.Export
	nodes := []string{}
	for node, v := range results {
		if len(v.Portions) > 0 {
			nodes = append(nodes, node)
		}
		portions = append(portions, v.Portions...)
	}
	root := trace.Stitch(portions)
	if root == nil {
		return nil, errs
	}
	sort.Strings(nodes)
	// Root-portion metadata: the originating (non-foreign) portion if
	// any node still holds it, else the earliest.
	var rootPortion *trace.Export
	for i := range portions {
		p := &portions[i]
		if len(p.Spans) == 0 {
			continue
		}
		switch {
		case rootPortion == nil:
			rootPortion = p
		case !p.Foreign && rootPortion.Foreign:
			rootPortion = p
		case p.Foreign == rootPortion.Foreign && p.StartUnixUS < rootPortion.StartUnixUS:
			rootPortion = p
		}
	}
	out := map[string]any{
		"id":    id,
		"nodes": nodes,
		"spans": root,
	}
	if rootPortion != nil {
		out["op"] = rootPortion.Op
		out["start_unix_us"] = rootPortion.StartUnixUS
		// Cross-process duration: the stitched trace spans from the
		// earliest portion start to the latest portion end.
		start, end := portions[0].StartUnixUS, int64(0)
		for _, p := range portions {
			if len(p.Spans) == 0 {
				continue
			}
			if p.StartUnixUS < start {
				start = p.StartUnixUS
			}
			if e := p.StartUnixUS + p.DurationUS; e > end {
				end = e
			}
		}
		out["duration_us"] = end - start
	}
	return out, errs
}

// handleTraceConfigBody applies a runtime tracing config locally
// (strict JSON: unknown fields are a 400 naming the field) and, when
// federation is wired, broadcasts the same config to every peer so
// one POST retunes the whole cluster.
func (s *Server) handleTraceConfig(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeErr(w, err)
		return
	}
	cfg, err := trace.Default.ApplyConfigJSON(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	publishTraceConfigEvent(cfg)
	out := traceConfigState(s.node())
	if s.fed != nil {
		cluster := map[string]string{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, node := range s.members() {
			if node == s.fed.Self() {
				continue
			}
			wg.Add(1)
			go func(node string) {
				defer wg.Done()
				fctx, cancel := context.WithTimeout(r.Context(), fanoutTimeout)
				_, ferr := s.fed.Fetch(fctx, node, "trace-config", body)
				cancel()
				mu.Lock()
				defer mu.Unlock()
				if ferr != nil {
					cluster[node] = ferr.Error()
					return
				}
				cluster[node] = "ok"
			}(node)
		}
		wg.Wait()
		out["cluster"] = cluster
	}
	writeJSON(w, http.StatusOK, out)
}
