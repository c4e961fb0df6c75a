package health

import (
	"fmt"
	"strings"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/events"
	"couchgo/internal/metrics"
)

// ClusterCheckConfig tunes the standard rule set. Zero values take the
// documented defaults.
type ClusterCheckConfig struct {
	// FeedStallCritAfter: a feed stall persisting this long is critical
	// (default 5s). Any ongoing stall is at least warn.
	FeedStallCritAfter time.Duration
	// DCPLagWarn / DCPLagCrit bound total undelivered mutations across
	// all DCP streams (defaults 1000 / 10000).
	DCPLagWarn, DCPLagCrit uint64
	// FlushBacklogWarn / FlushBacklogCrit bound the summed flusher
	// queue depth (defaults 500 / 5000).
	FlushBacklogWarn, FlushBacklogCrit int
	// ResidencyWarn / ResidencyCrit: a bucket whose resident fraction
	// (1 - nonresident/items) falls below these is degraded
	// (defaults 0.5 / 0.2).
	ResidencyWarn, ResidencyCrit float64
	// MemoryWarn / MemoryCrit: used/quota fractions (defaults 0.85 /
	// 0.95, the pager watermarks). Buckets without a quota are skipped.
	MemoryWarn, MemoryCrit float64
	// SlowOpWarnPerSec / SlowOpCritPerSec bound the slow-query rate
	// (defaults 1 / 10 per second).
	SlowOpWarnPerSec, SlowOpCritPerSec float64
	// Registry supplies feed metrics (default metrics.Default).
	Registry *metrics.Registry
	// Now overrides the clock for stall-age and rate computations
	// (tests and demos); defaults to time.Now.
	Now func() time.Time
}

func (cfg *ClusterCheckConfig) defaults() {
	if cfg.FeedStallCritAfter <= 0 {
		cfg.FeedStallCritAfter = 5 * time.Second
	}
	if cfg.DCPLagWarn == 0 {
		cfg.DCPLagWarn = 1000
	}
	if cfg.DCPLagCrit == 0 {
		cfg.DCPLagCrit = 10000
	}
	if cfg.FlushBacklogWarn == 0 {
		cfg.FlushBacklogWarn = 500
	}
	if cfg.FlushBacklogCrit == 0 {
		cfg.FlushBacklogCrit = 5000
	}
	if cfg.ResidencyWarn == 0 {
		cfg.ResidencyWarn = 0.5
	}
	if cfg.ResidencyCrit == 0 {
		cfg.ResidencyCrit = 0.2
	}
	if cfg.MemoryWarn == 0 {
		cfg.MemoryWarn = 0.85
	}
	if cfg.MemoryCrit == 0 {
		cfg.MemoryCrit = 0.95
	}
	if cfg.SlowOpWarnPerSec == 0 {
		cfg.SlowOpWarnPerSec = 1
	}
	if cfg.SlowOpCritPerSec == 0 {
		cfg.SlowOpCritPerSec = 10
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.Default
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
}

// RegisterClusterChecks installs the standard rule set over a cluster:
// per-node liveness, feed stall age, DCP lag, flush backlog, cache
// residency/memory, and slow-op rate. Node checks are registered for
// the nodes present at call time (the in-process cluster adds nodes up
// front; re-register after topology growth if needed).
func RegisterClusterChecks(w *Watchdog, c *core.Cluster, cfg ClusterCheckConfig) {
	cfg.defaults()

	for _, n := range c.Nodes() {
		id := n.ID()
		node := n
		w.Register("node:"+string(id), func() (State, string) {
			if node.Alive() {
				return OK, "alive"
			}
			// A dead node still holding partitions is the emergency;
			// once failover unmaps it everywhere it is history, not a
			// problem — the check recovers so /health can go green.
			if c.NodeMapped(id) {
				return Critical, "node down with mapped partitions"
			}
			return OK, "down (failed over, unmapped)"
		})
	}

	w.Register("feed:stalls", feedStallCheck(cfg))
	w.Register("dcp:lag", dcpLagCheck(c, cfg))
	w.Register("flush:backlog", flushBacklogCheck(c, cfg))
	w.Register("cache:residency", residencyCheck(c, cfg))
	w.Register("cache:memory", memoryCheck(c, cfg))
	w.Register("query:slowops", slowOpCheck(c, cfg))
}

// feedStallCheck ages the couchgo_feed_stalled gauge: any drain
// currently blocked on a full buffer is at least warn, and a stall
// that persists past FeedStallCritAfter is critical. The closure's
// state is safe because the watchdog runs checks sequentially.
func feedStallCheck(cfg ClusterCheckConfig) CheckFunc {
	var stalledSince time.Time
	return func() (State, string) {
		stalled := sumGauge(cfg.Registry, "couchgo_feed_stalled")
		if stalled <= 0 {
			stalledSince = time.Time{}
			return OK, "no feeds stalled"
		}
		now := cfg.Now()
		if stalledSince.IsZero() {
			stalledSince = now
		}
		age := now.Sub(stalledSince)
		detail := fmt.Sprintf("%d drain(s) stalled for %s", stalled, age.Round(time.Millisecond))
		if age >= cfg.FeedStallCritAfter {
			return Critical, detail
		}
		return Warn, detail
	}
}

func dcpLagCheck(c *core.Cluster, cfg ClusterCheckConfig) CheckFunc {
	return func() (State, string) {
		var total uint64
		for _, b := range c.BucketNames() {
			for _, st := range c.Stats(b) {
				for _, lag := range st.DCPLags {
					total += lag
				}
			}
		}
		detail := fmt.Sprintf("%d undelivered mutations", total)
		switch {
		case total >= cfg.DCPLagCrit:
			return Critical, detail
		case total >= cfg.DCPLagWarn:
			return Warn, detail
		}
		return OK, detail
	}
}

func flushBacklogCheck(c *core.Cluster, cfg ClusterCheckConfig) CheckFunc {
	return func() (State, string) {
		total := 0
		for _, b := range c.BucketNames() {
			for _, st := range c.Stats(b) {
				total += st.QueueDepth
			}
		}
		detail := fmt.Sprintf("%d queued mutations", total)
		switch {
		case total >= cfg.FlushBacklogCrit:
			return Critical, detail
		case total >= cfg.FlushBacklogWarn:
			return Warn, detail
		}
		return OK, detail
	}
}

func residencyCheck(c *core.Cluster, cfg ClusterCheckConfig) CheckFunc {
	return func() (State, string) {
		worst, worstBucket := 1.0, ""
		for _, b := range c.BucketNames() {
			var items, nonResident int64
			for _, st := range c.Stats(b) {
				items += st.Items
				nonResident += st.NonResident
			}
			if items == 0 {
				continue
			}
			r := 1 - float64(nonResident)/float64(items)
			if worstBucket == "" || r < worst {
				worst, worstBucket = r, b
			}
		}
		if worstBucket == "" {
			return OK, "no items"
		}
		detail := fmt.Sprintf("bucket %s %.0f%% resident", worstBucket, worst*100)
		switch {
		case worst < cfg.ResidencyCrit:
			return Critical, detail
		case worst < cfg.ResidencyWarn:
			return Warn, detail
		}
		return OK, detail
	}
}

func memoryCheck(c *core.Cluster, cfg ClusterCheckConfig) CheckFunc {
	return func() (State, string) {
		worst, worstBucket := 0.0, ""
		for _, b := range c.BucketNames() {
			quota := c.BucketQuota(b)
			if quota <= 0 {
				continue
			}
			var used int64
			for _, st := range c.Stats(b) {
				used += st.MemUsed
			}
			f := float64(used) / float64(quota)
			if f > worst {
				worst, worstBucket = f, b
			}
		}
		if worstBucket == "" {
			return OK, "no quotas configured"
		}
		detail := fmt.Sprintf("bucket %s at %.0f%% of quota", worstBucket, worst*100)
		switch {
		case worst >= cfg.MemoryCrit:
			return Critical, detail
		case worst >= cfg.MemoryWarn:
			return Warn, detail
		}
		return OK, detail
	}
}

// slowOpCheck rates slow-query arrivals between ticks.
func slowOpCheck(c *core.Cluster, cfg ClusterCheckConfig) CheckFunc {
	var prev uint64
	var prevAt time.Time
	return func() (State, string) {
		cur := c.SlowQueryTotal()
		now := cfg.Now()
		if prevAt.IsZero() {
			prev, prevAt = cur, now
			return OK, "collecting baseline"
		}
		dt := now.Sub(prevAt).Seconds()
		delta := cur - prev
		prev, prevAt = cur, now
		if dt <= 0 {
			return OK, "no interval"
		}
		rate := float64(delta) / dt
		detail := fmt.Sprintf("%.1f slow ops/s", rate)
		switch {
		case rate >= cfg.SlowOpCritPerSec:
			return Critical, detail
		case rate >= cfg.SlowOpWarnPerSec:
			return Warn, detail
		}
		return OK, detail
	}
}

// sumGauge totals every series of a gauge family in the registry
// snapshot.
func sumGauge(r *metrics.Registry, family string) int64 {
	var total int64
	for _, v := range r.Snapshot()[family] {
		total += int64(v.Value)
	}
	return total
}

// AutoFailover arms w as the process's failure detector: a liveness
// check named prefix+<id> ("node:" in-process, "member:" on a networked
// seed) that the watchdog holds critical fails <id> over. It is the one
// path from silence to a failover in a process that runs a watchdog;
// a failover that fails is journaled.
func AutoFailover(w *Watchdog, prefix string, failover func(cmap.NodeID) error) {
	w.OnTransition(func(st CheckStatus) {
		id, ok := strings.CutPrefix(st.Name, prefix)
		if !ok || st.State != Critical {
			return
		}
		if err := failover(cmap.NodeID(id)); err != nil {
			e := events.New(events.Topology, events.SevWarn, "auto-failover failed")
			e.Node = id
			e.Fields = map[string]string{"error": err.Error()}
			w.opts.Journal.Publish(e)
		}
	})
}
