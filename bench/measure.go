package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/executor"
)

// clientState is one closed-loop client goroutine: it sends its next
// operation only after the previous one completed.
type clientState struct {
	g      int
	e      *env
	stream *opStream

	// Per sub-window, per op kind. An op belongs to the window it
	// completed in.
	hists [][numKinds]hist
	ok    [][numKinds]int64

	attempted, failures int64
	firstErr            error
	userBytes           int64 // value bytes of acknowledged writes
	evictRaces          int64 // reads repeated after cache.ErrValueEvicted

	// acked maps a key this client alone writes (its private range,
	// and every key under OwnWrites) to the value seed of its last
	// acknowledged write. recent holds the last few inserted keys.
	acked  map[string]uint64
	recent []string
}

// runResult is one closed-loop run of all clients.
type runResult struct {
	clients []*clientState
	windows int
	winLen  time.Duration
	elapsed time.Duration
}

// runClients drives closed-loop clients first..numClients-1 for d. With
// windows == 0 nothing but failures is recorded (warm-up, and the
// ladder's companions, where the traced goroutine is client 0).
func runClients(e *env, seed uint64, d time.Duration, windows, first int) *runResult {
	res := &runResult{windows: windows}
	if windows > 0 {
		res.winLen = d / time.Duration(windows)
	}
	for g := first; g < numClients; g++ {
		res.clients = append(res.clients, &clientState{
			g: g, e: e,
			stream: newOpStream(e.w.mix, seed, g, numClients),
			hists:  make([][numKinds]hist, windows),
			ok:     make([][numKinds]int64, windows),
			acked:  map[string]uint64{},
		})
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range res.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(start, d, res.winLen)
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

func (c *clientState) loop(start time.Time, d, winLen time.Duration) {
	ctx := context.Background()
	for {
		// The op, its key and its value are made before the clock
		// starts: latency is the cluster's, as in YCSB, where only the
		// database call is timed.
		o := c.stream.next()
		key := keyName(o.Key)
		if o.Private {
			key = privateKeyName(c.g, o.Key)
		}
		var value []byte
		if o.Kind == opWrite {
			value = buildRecord(o.ValueSeed)
		}
		t0 := time.Now()
		if t0.Sub(start) >= d {
			return
		}
		err := c.do(ctx, o, key, value)
		lat := time.Since(t0)
		if err == nil && o.Kind == opWrite {
			c.acknowledged(o, key, len(value))
		}
		done := t0.Add(lat).Sub(start)
		if done >= d {
			return // completed after the window closed: not measured
		}
		c.attempted++
		if err != nil {
			c.failures++
			if c.firstErr == nil {
				c.firstErr = fmt.Errorf("client %d %s key %d: %w", c.g, o.Kind, o.Key, err)
			}
			continue
		}
		if winLen > 0 {
			w := int(done / winLen)
			c.hists[w][o.Kind].add(int64(lat))
			c.ok[w][o.Kind]++
		}
	}
}

// do executes one operation against the live cluster and checks its
// answer.
func (c *clientState) do(ctx context.Context, o op, key string, value []byte) error {
	if o.Kind == opWrite {
		_, err := c.e.client.SetWithOptions(ctx, key, value, 0, 0, 0, c.e.w.durable)
		return err
	}
	if c.e.w.query {
		return c.scan(o, key)
	}
	it, err := c.e.client.Get(ctx, key)
	// The item pager can evict a value between vbucket.Get's
	// background fetch and its second cache lookup, and Get then
	// returns this internal error (about once per 2M reads on
	// lib.kv-dgm). A caller would simply ask again, so the client
	// does, inside the timed op, and the races are counted and
	// reported as cache.evict_races instead of failing the run.
	for try := 0; errors.Is(err, cache.ErrValueEvicted) && try < 3; try++ {
		c.evictRaces++
		it, err = c.e.client.Get(ctx, key)
	}
	if err != nil {
		return err
	}
	if len(it.Value) != recordLen {
		return fmt.Errorf("value has %d bytes, want %d", len(it.Value), recordLen)
	}
	return nil
}

// acknowledged books a successful write: the bytes for write
// amplification, and the value seed where this client alone writes the
// key and will read it back.
func (c *clientState) acknowledged(o op, key string, valueLen int) {
	c.userBytes += int64(valueLen)
	switch {
	case o.Private || c.e.w.mix.OwnWrites:
		c.acked[key] = o.ValueSeed
	case c.e.w.mix.Insert:
		c.acked[key] = o.ValueSeed
		c.recent = append(c.recent, key)
		if len(c.recent) > privateKeys {
			delete(c.acked, c.recent[0])
			c.recent = c.recent[1:]
		}
	}
}

// scan runs the workload E range query and checks the rows: exactly
// LIMIT of them unless the scan ran off the end of the keyspace,
// ascending, and none below the start key.
func (c *clientState) scan(o op, start string) error {
	res, err := c.e.cluster.Query(scanStatement, executor.Options{
		Params: map[string]any{"1": start, "2": float64(o.Limit)},
	})
	if err != nil {
		return err
	}
	// Every loaded key in [start, Records) exists and is indexed, so a
	// correct scan returns at least that many rows, up to LIMIT.
	atLeast := min(int64(o.Limit), c.e.w.mix.Records-o.Key)
	if n := int64(len(res.Rows)); n > int64(o.Limit) || n < atLeast {
		return fmt.Errorf("scan from %s LIMIT %d returned %d rows, want at least %d", start, o.Limit, n, atLeast)
	}
	prev := ""
	for i, row := range res.Rows {
		obj, _ := row.(map[string]any)
		id, _ := obj["id"].(string)
		if id < start || id <= prev {
			return fmt.Errorf("scan from %s: row %d is %q after %q", start, i, id, prev)
		}
		prev = id
	}
	return nil
}

// verifyAcked reads back every key this client alone wrote and
// compares it, byte for byte, with its last acknowledged value.
func (c *clientState) verifyAcked(ctx context.Context) error {
	for key, seed := range c.acked {
		it, err := c.e.client.Get(ctx, key)
		if err != nil {
			return fmt.Errorf("client %d: read back %s: %w", c.g, key, err)
		}
		if !bytes.Equal(it.Value, buildRecord(seed)) {
			return fmt.Errorf("client %d: %s does not hold its last acknowledged value", c.g, key)
		}
	}
	return nil
}

func (r *runResult) attempted() (n int64) {
	for _, c := range r.clients {
		n += c.attempted
	}
	return n
}

func (r *runResult) failed() (n int64) {
	for _, c := range r.clients {
		n += c.failures
	}
	return n
}

func (r *runResult) firstError() error {
	for _, c := range r.clients {
		if c.firstErr != nil {
			return c.firstErr
		}
	}
	return nil
}

func (r *runResult) succeeded() int64 { return r.attempted() - r.failed() }

func (r *runResult) userBytes() (n int64) {
	for _, c := range r.clients {
		n += c.userBytes
	}
	return n
}

func (r *runResult) evictRaces() (n int64) {
	for _, c := range r.clients {
		n += c.evictRaces
	}
	return n
}

// okIn counts the successful operations of window w (all kinds).
func (r *runResult) okIn(w int) (n int64) {
	for _, c := range r.clients {
		for k := 0; k < numKinds; k++ {
			n += c.ok[w][k]
		}
	}
	return n
}

// merged is the latency histogram of one op kind over windows
// [from, to).
func (r *runResult) merged(kind opKind, from, to int) *hist {
	h := &hist{}
	for _, c := range r.clients {
		for w := from; w < to; w++ {
			h.merge(&c.hists[w][kind])
		}
	}
	return h
}

// absorb appends o's sub-windows and counts to r, client by client, so
// that segments measured on different clusters read as one run.
func (r *runResult) absorb(o *runResult) {
	if r.clients == nil {
		r.winLen = o.winLen
		for range o.clients {
			r.clients = append(r.clients, &clientState{})
		}
	}
	for i, c := range r.clients {
		oc := o.clients[i]
		c.hists = append(c.hists, oc.hists...)
		c.ok = append(c.ok, oc.ok...)
		c.attempted += oc.attempted
		c.failures += oc.failures
		if c.firstErr == nil {
			c.firstErr = oc.firstErr
		}
		c.userBytes += oc.userBytes
		c.evictRaces += oc.evictRaces
	}
	r.windows += o.windows
	r.elapsed += o.elapsed
}

// stat is one metric over the whole measured interval plus its spread
// over the sub-windows, which costs no extra run time.
type stat struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples uint64  `json:"samples,omitempty"`
	WinMin  float64 `json:"window_min,omitempty"`
	WinMax  float64 `json:"window_max,omitempty"`
	// WinQ1 and WinQ3 are the sub-windows' quartiles; -compare takes
	// their distance as the run's own spread.
	WinQ1 float64 `json:"window_q1,omitempty"`
	WinQ3 float64 `json:"window_q3,omitempty"`
}

// windowSpread is the sub-windows' interquartile distance as a share
// of the value.
func (s stat) windowSpread() float64 { return ratio(s.WinQ3-s.WinQ1, s.Value) }

// windowStat is the median of per-window values with their spread.
func windowStat(per []float64, unit string) stat {
	sorted := append([]float64(nil), per...)
	sort.Float64s(sorted)
	if len(sorted) == 0 {
		return stat{Unit: unit}
	}
	return stat{
		Value: median(sorted), Unit: unit, Samples: uint64(len(sorted)),
		WinMin: sorted[0], WinMax: sorted[len(sorted)-1],
		WinQ1: quantileOf(sorted, 0.25), WinQ3: quantileOf(sorted, 0.75),
	}
}

// quantileOf interpolates linearly between the sorted samples.
func quantileOf(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// throughput is the median over the sub-windows of successful
// operations per second. The median keeps one stalled second (a
// compaction, a GC cycle of the harness) from moving the result.
func (r *runResult) throughput() stat {
	per := make([]float64, r.windows)
	for w := range per {
		per[w] = float64(r.okIn(w)) / r.winLen.Seconds()
	}
	s := windowStat(per, "1/s")
	s.Samples = uint64(r.succeeded())
	return s
}

// latency is the q-quantile of one op kind in microseconds over the
// whole interval, with its spread over the sub-windows. ok is false
// when fewer than ten samples lie beyond the quantile.
func (r *runResult) latency(kind opKind, q float64) (stat, bool) {
	all := r.merged(kind, 0, r.windows)
	ns, ok := all.quantile(q)
	var per []float64
	for w := 0; w < r.windows; w++ {
		if v, _ := r.merged(kind, w, w+1).quantile(q); v > 0 {
			per = append(per, v/1e3)
		}
	}
	s := windowStat(per, "us")
	s.Value, s.Samples = ns/1e3, all.n
	return s, ok
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
