package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"couchgo/internal/metrics"
)

// counters is one reading of the program's existing public metric
// surface, keyed by the full Prometheus series ("name{labels}"). The
// same parser reads a cbserver's GET /metrics and this process's
// metrics.Default, so wire and in-process workloads share every
// derivation below.
type counters map[string]float64

func parseCounters(text string) counters {
	c := counters{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		c[line[:i]] += v
	}
	return c
}

// sumFamily adds every series of one metric name, whatever its labels.
func (c counters) sumFamily(name string) float64 {
	sum := 0.0
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// sub returns c − before, series by series.
func (c counters) sub(before counters) counters {
	d := counters{}
	for k, v := range c {
		b, ok := before[k]
		if fam := bucketFamily(k); !ok && fam != "" {
			b = before[fam+"_count"]
		}
		d[k] = v - b
	}
	return d
}

// bucketFamily returns the histogram family of a cumulative le-bucket
// series, or "" for any other series. The exposition stops at the
// highest populated bucket, so a bucket absent from a reading holds
// that reading's whole _count.
func bucketFamily(series string) string {
	if i := strings.Index(series, `_bucket{le="`); i > 0 {
		return series[:i]
	}
	return ""
}

// sumCounters adds readings of several processes series by series.
func sumCounters(all []counters) counters {
	sum := counters{}
	for _, c := range all {
		for k, v := range c {
			sum[k] += v
		}
	}
	for k := range sum {
		fam := bucketFamily(k)
		if fam == "" {
			continue
		}
		for _, c := range all {
			if _, ok := c[k]; !ok {
				sum[k] += c[fam+"_count"]
			}
		}
	}
	return sum
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histMean is the mean observation of a histogram family over a diff.
func (c counters) histMean(name string) float64 {
	return ratio(c.sumFamily(name+"_sum"), c.sumFamily(name+"_count"))
}

// histQuantile estimates the q-quantile of an unlabeled histogram
// family from a diff of its cumulative le-buckets, interpolating inside
// the bucket. The program's histograms are log₂, so this is coarse; it
// is reported as a layer metric only.
func (c counters) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range c {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{le, v})
	}
	total := c[name+"_count"]
	if total <= 0 || len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	target := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target && b.cum > prev {
			return lo + (b.le-lo)*(target-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return bs[len(bs)-1].le
}

// cpuSeconds is the user+system CPU time the given processes have
// consumed so far, from /proc/<pid>/stat (clock ticks of 1/100 s).
func cpuSeconds(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
		if err != nil {
			return 0, err
		}
		// The command name is parenthesised and may contain spaces;
		// fields are counted from the closing parenthesis.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", pid)
		}
		utime, _ := strconv.ParseFloat(f[11], 64)
		stime, _ := strconv.ParseFloat(f[12], 64)
		total += (utime + stime) / 100
	}
	return total, nil
}

// mallocs is the harness process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// depthSampler polls the disk-write queue depth during a window; the
// gauge has no high-watermark of its own.
type depthSampler struct {
	stopCh chan struct{}
	done   chan float64
}

func startDepthSampler(e *env) *depthSampler {
	s := &depthSampler{stopCh: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		maxDepth := 0.0
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				s.done <- maxDepth
				return
			case <-tick.C:
				if e.wc != nil {
					// A scrape costs the servers CPU, so the wire
					// workloads sample the unlabeled process-wide gauge
					// of each server, and only four times a second.
					if c, err := e.wc.scrape(); err == nil {
						maxDepth = max(maxDepth, c["couchgo_flusher_queue_depth"])
					}
				} else {
					maxDepth = max(maxDepth, float64(metrics.Default.Gauge("couchgo_flusher_queue_depth").Value()))
				}
			}
		}
	}()
	return s
}

func (s *depthSampler) stop() float64 {
	close(s.stopCh)
	return <-s.done
}
