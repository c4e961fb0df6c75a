package main

import (
	"fmt"
	"strings"
	"time"

	"couchgo/internal/health"
	"couchgo/internal/metrics"
	"couchgo/internal/rest"
)

// snapshot is one poll of a node's /cluster/* surface, decoded into
// the server's own types. render is a pure function over it so the
// display logic is testable without a terminal.
type snapshot struct {
	Addr    string
	When    time.Time
	Err     error               // poll failure; renders as a banner
	Metrics rest.ClusterMetrics // GET /cluster/metrics
	Health  rest.ClusterHealth  // GET /cluster/health
	Events  []rest.ClusterEvent // GET /cluster/events, oldest first
}

func marker(st health.State) string {
	switch st {
	case health.Warn:
		return " !"
	case health.Critical:
		return "!!"
	}
	return "  "
}

// render draws one full frame. maxEvents bounds the event tail.
func render(s snapshot, maxEvents int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cbtop — %s @ %s\n", s.Addr, s.When.Format("15:04:05"))
	if s.Err != nil {
		fmt.Fprintf(&b, "\n  !! poll failed: %v\n", s.Err)
		return b.String()
	}

	// --- worst-of health roll-up, every member's checks under it ---
	fmt.Fprintf(&b, "\nCLUSTER HEALTH: %s\n", strings.ToUpper(s.Health.Status.String()))
	for _, name := range rest.SortedKeys(s.Health.Nodes) {
		h := s.Health.Nodes[name]
		fmt.Fprintf(&b, "  %s %-22s %s\n", marker(h.Status), name, h.Status)
		for _, chk := range h.Checks {
			fmt.Fprintf(&b, "     %s %-16s %-8s %s\n", marker(chk.State), chk.Name, chk.State, chk.Detail)
		}
	}
	for _, name := range rest.SortedKeys(s.Health.Errors) {
		fmt.Fprintf(&b, "  !! %-22s critical %s\n", name, s.Health.Errors[name])
	}

	// --- one row per member ---
	members := rest.SortedKeys(s.Metrics.Nodes)
	fmt.Fprintf(&b, "\n%-22s %-16s %8s %9s %9s %9s %9s\n",
		"MEMBER", "VERSION", "UP", "KV-p50", "KV-p99", "WIRE-p50", "WIRE-p99")
	for _, name := range members {
		n := s.Metrics.Nodes[name]
		kv50, kv99 := famQuantiles(n.Metrics["couchgo_kv_op_duration_seconds"])
		w50, w99 := famQuantiles(n.Metrics["couchgo_transport_op_seconds"])
		fmt.Fprintf(&b, "%-22s %-16s %8s %9s %9s %9s %9s\n",
			name, n.Server.Version+" "+n.Server.Go, fmtUptime(n.Server.UptimeSeconds),
			fmtLatency(kv50), fmtLatency(kv99), fmtLatency(w50), fmtLatency(w99))
	}
	for _, name := range rest.SortedKeys(s.Metrics.Errors) {
		fmt.Fprintf(&b, "%-22s  !! %s\n", name, s.Metrics.Errors[name])
	}

	for _, name := range members {
		n := s.Metrics.Nodes[name]
		fmt.Fprintf(&b, "\n── %s ──\n", name)
		b.WriteString(renderBuckets(n))
		b.WriteString(renderTransport(n.Metrics))
		b.WriteString(renderHotPath(n.Metrics))
		b.WriteString(renderLatencies(n.Metrics))
	}

	// --- merged event tail (origin-tagged) ---
	b.WriteString("\nEVENTS")
	if len(s.Events) == 0 {
		b.WriteString(" (none)\n")
		return b.String()
	}
	b.WriteString("\n")
	for _, e := range s.Events[max(0, len(s.Events)-maxEvents):] {
		fmt.Fprintf(&b, "  %s %-8s %-22s %-10s %s", e.Time.Format("15:04:05"),
			strings.ToUpper(e.Severity.String()), e.Origin, e.Type, e.Msg)
		if e.Node != "" {
			fmt.Fprintf(&b, " [%s]", e.Node)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// renderBuckets is one row per (bucket, logical node), then the
// bucket's DCP backlog per stream as the server summed it.
func renderBuckets(n rest.NodeSnapshot) string {
	if len(n.Buckets) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %-5s %9s %10s %7s %7s\n",
		"BUCKET", "NODE", "ALIVE", "ITEMS", "MEM", "QUEUE", "TOMB")
	for _, bucket := range rest.SortedKeys(n.Buckets) {
		for _, st := range n.Buckets[bucket] {
			fmt.Fprintf(&b, "%-10s %-8s %-5v %9d %10s %7d %7d\n",
				bucket, st.ID, st.Alive, st.Items, fmtBytes(float64(st.MemUsed)), st.QueueDepth, st.Tombstones)
		}
		if lags := n.DCPLag[bucket]; len(lags) > 0 {
			fmt.Fprintf(&b, "%-10s DCP-LAG", bucket)
			for _, stream := range rest.SortedKeys(lags) {
				fmt.Fprintf(&b, "  %s %d", stream, lags[stream])
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// renderTransport is the wire row, from the registry's transport
// series; a process that never moved a byte over the KV wire has none.
func renderTransport(m metrics.Snapshot) string {
	val := func(fam string, labels ...string) float64 {
		return m[fam][metrics.LabelString(labels...)].Value
	}
	in, out := val("couchgo_transport_bytes_total", "dir", "in"), val("couchgo_transport_bytes_total", "dir", "out")
	if in+out == 0 {
		return ""
	}
	return fmt.Sprintf("\nTRANSPORT  conns %.0f srv / %.0f cli   in %s  out %s   nmvb %.0f   dcp-streams %.0f\n",
		val("couchgo_transport_conns", "side", "server"), val("couchgo_transport_conns", "side", "client"),
		fmtBytes(in), fmtBytes(out),
		val("couchgo_notmyvbucket_total"), val("couchgo_transport_dcp_streams_serving"))
}

// renderHotPath surfaces the write-path efficiency counters: group
// commit (how many appends each fsync covered), the disk-write queue
// backlog, wire write coalescing (frames per socket syscall) and, once
// the item pager has evicted, what an eviction cost it in visits. A
// healthy loaded node shows coalesced appends > 1 and frames/write
// climbing with concurrency; a deep flush queue means the disk is
// behind.
func renderHotPath(m metrics.Snapshot) string {
	famSum := func(fam string) (sum float64, ok bool) {
		for _, v := range m[fam] {
			sum += v.Value
		}
		return sum, len(m[fam]) > 0
	}
	famHist := func(fam string) *metrics.HistogramStats {
		for _, v := range m[fam] {
			if v.Hist != nil && v.Hist.Count > 0 {
				return v.Hist
			}
		}
		return nil
	}

	batches, okB := famSum("couchgo_storage_group_commit_batches")
	riders, okR := famSum("couchgo_storage_group_commit_riders_total")
	queue, okQ := famSum("couchgo_flusher_queue_depth")
	coal := famHist("couchgo_storage_group_commit_coalesced_appends")
	frames := famHist("couchgo_transport_frames_per_syscall")
	if !okB && !okR && !okQ && coal == nil && frames == nil {
		return ""
	}

	var b strings.Builder
	b.WriteString("\nHOT PATH\n")
	if okB || okR {
		fmt.Fprintf(&b, "  group commit   %8.0f fsyncs   %8.0f riders", batches, riders)
		if coal != nil {
			fmt.Fprintf(&b, "   appends/fsync mean %.1f max %.0f", coal.Mean, coal.Max)
		}
		b.WriteString("\n")
	}
	if okQ {
		fmt.Fprintf(&b, "  flush queue    %8.0f entries\n", queue)
	}
	if frames != nil {
		fmt.Fprintf(&b, "  wire coalesce  %8d writes   frames/write mean %.1f p99 %.0f max %.0f\n",
			frames.Count, frames.Mean, frames.P99, frames.Max)
	}
	if evicted, _ := famSum("couchgo_cache_evictions_total"); evicted > 0 {
		visited, _ := famSum("couchgo_cache_pager_visited_total")
		unmapped, _ := famSum("couchgo_storage_reads_unmapped_total")
		fmt.Fprintf(&b, "  item pager     %8.0f evictions   visits/eviction %.1f   unmapped reads %.0f\n",
			evicted, visited/evicted, unmapped)
	}
	return b.String()
}

// renderLatencies picks the operator-facing histogram families out of
// the registry snapshot: per-op KV latency, overall query latency and
// server-side wire handling per opcode.
func renderLatencies(m metrics.Snapshot) string {
	var b strings.Builder
	writeFam := func(title, fam string) {
		series := m[fam]
		if len(series) == 0 {
			return
		}
		fmt.Fprintf(&b, "\n%s\n", title)
		fmt.Fprintf(&b, "  %-18s %9s %9s %9s %9s %9s\n", "", "count", "p50", "p95", "p99", "max")
		for _, ls := range rest.SortedKeys(series) {
			h := series[ls].Hist
			if h == nil {
				continue
			}
			name := strings.Trim(ls, "{}")
			if name == "" {
				name = "(all)"
			}
			fmt.Fprintf(&b, "  %-18s %9d %9s %9s %9s %9s\n", name, h.Count,
				fmtLatency(h.P50), fmtLatency(h.P95), fmtLatency(h.P99), fmtLatency(h.Max))
		}
	}
	writeFam("KV LATENCY", "couchgo_kv_op_duration_seconds")
	writeFam("QUERY LATENCY", "couchgo_query_duration_seconds")
	writeFam("WIRE OP LATENCY", "couchgo_transport_op_seconds")
	return b.String()
}

// famQuantiles rolls one histogram family up into headline p50/p99
// numbers: the count-weighted mean of each series' quantile.
// Quantiles don't merge exactly, but for a console view a weighted
// blend beats showing one arbitrary op — hot ops dominate, idle ops
// don't skew.
func famQuantiles(series map[string]metrics.SeriesValue) (p50, p99 float64) {
	var total float64
	for _, v := range series {
		if v.Hist == nil || v.Hist.Count == 0 {
			continue
		}
		n := float64(v.Hist.Count)
		total += n
		p50 += v.Hist.P50 * n
		p99 += v.Hist.P99 * n
	}
	if total == 0 {
		return 0, 0
	}
	return p50 / total, p99 / total
}

func fmtUptime(secs float64) string {
	d := time.Duration(secs) * time.Second
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%dh%dm", int(d.Hours()), int(d.Minutes())%60)
	case d >= time.Minute:
		return fmt.Sprintf("%dm%ds", int(d.Minutes()), int(d.Seconds())%60)
	}
	return fmt.Sprintf("%ds", int(d.Seconds()))
}

func fmtBytes(n float64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", n/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", n/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", n/(1<<10))
	}
	return fmt.Sprintf("%.0fB", n)
}

func fmtLatency(secs float64) string {
	switch {
	case secs <= 0:
		return "-"
	case secs < time.Millisecond.Seconds():
		return fmt.Sprintf("%.0fµs", secs*1e6)
	case secs < time.Second.Seconds():
		return fmt.Sprintf("%.1fms", secs*1e3)
	}
	return fmt.Sprintf("%.2fs", secs)
}
