package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/executor"
	"couchgo/internal/metrics"
)

// Fixed load model, recorded in every result. The sandbox has 2 cores,
// so 2 closed-loop clients saturate it without queueing behind each
// other; YCSB threads and the paper's SDK callers each wait for their
// reply, which is what a closed loop models.
const (
	numClients  = 2
	numVBuckets = 64
	numNodes    = 2
	bucketName  = "b"
	loaders     = 4
	// setupRepeats is how many times a --trace 0 run sets the cluster
	// up; setup_s is the median, and the last one is measured.
	setupRepeats = 3
)

// workload is one named benchmark workload. Later issues refer to these
// names; BENCHMARK.json carries each one's why.
type workload struct {
	name     string
	wire     bool // 2 cbserver processes over loopback TCP instead of in-process
	sync     bool // servers fsync every persisted batch
	replicas int
	// quotaShare, when non-zero, sets the bucket memory quota to that
	// share of the loaded value bytes (value eviction).
	quotaShare float64
	durable    core.DurabilityOptions // applied to every write
	query      bool                   // primary index, reads are N1QL range queries
	mix        mix
}

var workloads = []workload{
	{
		name: "lib.kv-a", replicas: 1,
		mix: mix{Records: 50000, ReadShare: 0.5, Zipfian: true},
	},
	{
		// 20k records, not lib.kv-a's 50k: the load crosses the wire
		// three times per run (setup_s is a median of three set-ups),
		// and a resident set of either size is served from memory.
		name: "wire.kv-a", wire: true, replicas: 1,
		mix: mix{Records: 20000, ReadShare: 0.5, Zipfian: true},
	},
	{
		// 10 % reads keep read_p50_us defined on this workload; each
		// also checks a value some durable write left behind.
		name: "wire.kv-durable", wire: true, sync: true, replicas: 1,
		durable: core.DurabilityOptions{ReplicateTo: 1, PersistTo: true},
		mix:     mix{Records: 10000, ReadShare: 0.1, OwnWrites: true},
	},
	{
		name: "lib.kv-dgm", quotaShare: 0.25,
		mix: mix{Records: 100000, ReadShare: 0.95},
	},
	{
		name: "lib.query-e", replicas: 1, query: true,
		mix: mix{Records: 20000, ReadShare: 0.95, Zipfian: true, Scan: true, Insert: true},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scanStatement is the appendix's workload E query.
const scanStatement = "SELECT meta().id AS id FROM " + bucketName + " WHERE meta().id >= $1 LIMIT $2"

// env is one set-up cluster, in-process or over the wire.
type env struct {
	w       workload
	client  *core.Client
	cluster *core.Cluster // in-process only
	wc      *wireCluster  // wire only
	dir     string
	phases  map[string]float64 // seconds each set-up phase took
	closed  bool
}

// setup builds the cluster, loads the records, waits for the flusher
// queues (and on lib.kv-dgm the item pager) to settle, and warms up.
// Warm-up comes last and ends the set-up: an unwarmed repeat of the
// same mix measured less than half the throughput here.
func setup(cfg runConfig, w workload, dir string) (*env, error) {
	e := &env{w: w, dir: dir, phases: map[string]float64{}}
	for _, p := range []struct {
		name string
		fn   func() error
	}{
		{"start", func() (err error) {
			if !w.wire {
				return e.startLib()
			}
			e.wc, err = startWireCluster(cfg, dir, numNodes, w.replicas, w.sync)
			if err == nil {
				e.client = e.wc.client
			}
			return err
		}},
		{"load", func() error { return e.load(cfg.seed) }},
		{"settle", func() error { return e.settle(30 * time.Second) }},
		{"warmup", func() error {
			if r := runClients(e, cfg.seed^warmupSalt, cfg.warmup, 0, 0); r.failed() > 0 {
				return fmt.Errorf("%d operations failed: %w", r.failed(), r.firstError())
			}
			return nil
		}},
	} {
		t0 := time.Now()
		err := p.fn()
		e.phases[p.name] = time.Since(t0).Seconds()
		if err != nil {
			e.close()
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return e, nil
}

// warmupSalt keeps the warm-up's op stream apart from the measured one.
const warmupSalt = 0x5eed0fa11

func (e *env) startLib() error {
	c, err := core.NewCluster(core.Config{Dir: e.dir, NumVBuckets: numVBuckets})
	if err != nil {
		return err
	}
	e.cluster = c
	for i := 0; i < numNodes; i++ {
		if _, err := c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices); err != nil {
			return err
		}
	}
	opts := core.BucketOptions{NumReplicas: e.w.replicas}
	if e.w.quotaShare > 0 {
		// The quota is per node, and each node holds 1/numNodes of the data.
		opts.MemoryQuotaBytes = int64(e.w.quotaShare * float64(e.w.mix.Records) * float64(recordLen) / numNodes)
	}
	if err := c.CreateBucket(bucketName, opts); err != nil {
		return err
	}
	if e.w.query {
		if _, err := c.Query("CREATE PRIMARY INDEX ON "+bucketName, executor.Options{}); err != nil {
			return err
		}
	}
	e.client, err = c.OpenBucket(bucketName)
	return err
}

// load inserts the records, each built from loadValueSeed(seed, i).
func (e *env) load(seed uint64) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, loaders)
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for {
				i := next.Add(1) - 1
				if i >= e.w.mix.Records {
					return
				}
				if _, err := e.client.Set(ctx, keyName(i), buildRecord(loadValueSeed(seed, i)), 0); err != nil {
					errs[l] = fmt.Errorf("key %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// settle waits until the load's disk-write queues have drained, the
// replicas and the index have caught up, and the item pager has brought
// a quota-bound bucket under its quota.
func (e *env) settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pending, err := e.pending()
		if err != nil {
			return err
		}
		if pending == "" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster did not settle within %s: %s", timeout, pending)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if e.w.query {
		// One request_plus query returns only once the primary index
		// has processed every loaded mutation.
		_, err := e.cluster.Query(scanStatement, executor.Options{
			Params:      map[string]any{"1": keyName(0), "2": 1.0},
			Consistency: executor.RequestPlus,
		})
		return err
	}
	return nil
}

// pending names what the cluster is still busy with, or "".
func (e *env) pending() (string, error) {
	if e.wc != nil {
		c, err := e.wc.scrape()
		if err != nil {
			return "", err
		}
		if d := c.sumFamily("couchgo_flusher_queue_depth"); d > 0 {
			return fmt.Sprintf("flusher queue depth %.0f", d), nil
		}
		if d := c.sumFamily("couchgo_dcp_lag"); d > 0 {
			return fmt.Sprintf("dcp lag %.0f", d), nil
		}
		return "", nil
	}
	if d := metrics.Default.Gauge("couchgo_flusher_queue_depth").Value(); d > 0 {
		return fmt.Sprintf("flusher queue depth %d", d), nil
	}
	for _, st := range e.cluster.Stats(bucketName) {
		for name, lag := range st.DCPLags {
			if lag > 0 {
				return fmt.Sprintf("dcp lag %d on %s", lag, name), nil
			}
		}
		if q := e.cluster.BucketQuota(bucketName); q > 0 && st.MemUsed > q {
			return fmt.Sprintf("node %s cache %d B over quota %d B", st.ID, st.MemUsed, q), nil
		}
	}
	return "", nil
}

func (e *env) close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.wc != nil {
		e.wc.close()
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
	os.RemoveAll(e.dir)
}

// scrape returns the counters of the system under test: the servers'
// for a wire workload, this process's otherwise.
func (e *env) scrape() (counters, error) {
	if e.wc != nil {
		return e.wc.scrape()
	}
	return localCounters(), nil
}

func localCounters() counters {
	var buf bytes.Buffer
	metrics.Default.WriteTo(metrics.NewTextWriter(&buf))
	return parseCounters(buf.String())
}

// pids lists the processes whose CPU time the workload consumes.
func (e *env) pids() []int {
	pids := []int{os.Getpid()}
	if e.wc != nil {
		pids = append(pids, e.wc.pids()...)
	}
	return pids
}
