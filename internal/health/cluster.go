package health

import (
	"fmt"
	"time"

	"couchgo/internal/core"
	"couchgo/internal/metrics"
)

// The standard rule set's thresholds.
const (
	// A feed stall persisting this long is critical; any ongoing stall
	// is at least warn.
	feedStallCritAfter = 5 * time.Second
	// Total undelivered mutations across all DCP streams.
	dcpLagWarn, dcpLagCrit = 1000, 10000
	// The summed flusher queue depth.
	flushBacklogWarn, flushBacklogCrit = 500, 5000
	// A bucket whose resident fraction (1 - nonresident/items) falls
	// below these is degraded.
	residencyWarn, residencyCrit = 0.5, 0.2
	// Used/quota fractions, the pager watermarks. Buckets without a
	// quota are skipped.
	memoryWarn, memoryCrit = 0.85, 0.95
	// The slow-query rate, per second.
	slowOpWarnPerSec, slowOpCritPerSec = 1, 10
)

// RegisterClusterChecks installs the standard rule set over a cluster:
// feed stall age, DCP lag, flush backlog, cache residency/memory, and
// slow-op rate. Liveness is not among them: the cluster's decider
// detects a silent node and fails it over. now is the clock that stall
// ages and rates are taken from.
func RegisterClusterChecks(w *Watchdog, c *core.Cluster, now func() time.Time) {
	w.Register("feed:stalls", feedStallCheck(now))
	w.Register("dcp:lag", dcpLagCheck(c))
	w.Register("flush:backlog", flushBacklogCheck(c))
	w.Register("cache:residency", residencyCheck(c))
	w.Register("cache:memory", memoryCheck(c))
	w.Register("query:slowops", slowOpCheck(c, now))
}

// feedStallCheck ages the couchgo_feed_stalled gauge: any drain
// currently blocked on a full buffer is at least warn, and a stall
// that persists past feedStallCritAfter is critical. The closure's
// state is safe because the watchdog runs checks sequentially.
func feedStallCheck(clock func() time.Time) CheckFunc {
	var stalledSince time.Time
	return func() (State, string) {
		var stalled int64
		for _, v := range metrics.Default.Snapshot()["couchgo_feed_stalled"] {
			stalled += int64(v.Value)
		}
		if stalled <= 0 {
			stalledSince = time.Time{}
			return OK, "no feeds stalled"
		}
		now := clock()
		if stalledSince.IsZero() {
			stalledSince = now
		}
		age := now.Sub(stalledSince)
		detail := fmt.Sprintf("%d drain(s) stalled for %s", stalled, age.Round(time.Millisecond))
		if age >= feedStallCritAfter {
			return Critical, detail
		}
		return Warn, detail
	}
}

func dcpLagCheck(c *core.Cluster) CheckFunc {
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
		case total >= dcpLagCrit:
			return Critical, detail
		case total >= dcpLagWarn:
			return Warn, detail
		}
		return OK, detail
	}
}

func flushBacklogCheck(c *core.Cluster) CheckFunc {
	return func() (State, string) {
		total := 0
		for _, b := range c.BucketNames() {
			for _, st := range c.Stats(b) {
				total += st.QueueDepth
			}
		}
		detail := fmt.Sprintf("%d queued mutations", total)
		switch {
		case total >= flushBacklogCrit:
			return Critical, detail
		case total >= flushBacklogWarn:
			return Warn, detail
		}
		return OK, detail
	}
}

func residencyCheck(c *core.Cluster) CheckFunc {
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
		case worst < residencyCrit:
			return Critical, detail
		case worst < residencyWarn:
			return Warn, detail
		}
		return OK, detail
	}
}

func memoryCheck(c *core.Cluster) CheckFunc {
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
		case worst >= memoryCrit:
			return Critical, detail
		case worst >= memoryWarn:
			return Warn, detail
		}
		return OK, detail
	}
}

// slowOpCheck rates slow-query arrivals between ticks.
func slowOpCheck(c *core.Cluster, clock func() time.Time) CheckFunc {
	var prev uint64
	var prevAt time.Time
	return func() (State, string) {
		cur := c.SlowQueryTotal()
		now := clock()
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
		case rate >= slowOpCritPerSec:
			return Critical, detail
		case rate >= slowOpWarnPerSec:
			return Warn, detail
		}
		return OK, detail
	}
}
