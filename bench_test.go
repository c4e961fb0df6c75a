// Benchmarks reproducing every table/figure in the paper's evaluation
// (Appendix §10: Figures 15 and 16) plus the body's quantitative
// claims as ablations. See DESIGN.md §2 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
//
// Run: go test -bench=. -benchmem
package couchgo

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/executor"
	"couchgo/internal/gsi"
	"couchgo/internal/storage"
	"couchgo/internal/vbucket"
	"couchgo/internal/views"
)

// benchCluster builds the appendix deployment: 4 nodes, all services
// everywhere. 64 vBuckets keep setup fast; the partition count does
// not change the code paths exercised.
func benchCluster(b *testing.B, cfg core.Config, replicas int) *core.Cluster {
	b.Helper()
	if cfg.Dir == "" {
		cfg.Dir = b.TempDir()
	}
	if cfg.NumVBuckets == 0 {
		cfg.NumVBuckets = 64
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	for i := 0; i < 4; i++ {
		if _, err := c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.CreateBucket("bench", core.BucketOptions{NumReplicas: replicas}); err != nil {
		b.Fatal(err)
	}
	return c
}

// --- Figures 15 and 16: YCSB workloads A and E vs client threads ---
//
// Paper: 4-node cluster, 10M docs, 4 clients × 12..32 threads. Scaled
// here to an in-process cluster and 5K records of YCSB's shape (ten
// 100-byte fields under ordered "user…" keys); the shape target is
// throughput per thread count.

const ycsbRecords = 5000

func ycsbKey(i uint64) string { return fmt.Sprintf("user%012d", i) }

func ycsbDoc(rng *rand.Rand) []byte {
	doc := []byte{'{'}
	for f := 0; f < 10; f++ {
		if f > 0 {
			doc = append(doc, ',')
		}
		doc = fmt.Appendf(doc, `"field%d":"`, f)
		for i := 0; i < 100; i++ {
			doc = append(doc, byte('a'+rng.Intn(26)))
		}
		doc = append(doc, '"')
	}
	return append(doc, '}')
}

// ycsbLoad fills the bench bucket with the record set.
func ycsbLoad(b *testing.B, cl *core.Client) {
	rng := rand.New(rand.NewSource(1))
	for i := uint64(0); i < ycsbRecords; i++ {
		if _, err := cl.Set(context.Background(), ycsbKey(i), ycsbDoc(rng), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// ycsbSweep runs one sub-benchmark per total thread count of the
// paper's sweep. newOp is called once per goroutine with that
// goroutine's own source and returns the op it repeats; any op error
// fails the run.
func ycsbSweep(b *testing.B, unit string, newOp func(rng *rand.Rand) func() error) {
	for _, threads := range []int{48, 64, 96, 128} {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			procs := runtime.GOMAXPROCS(0)
			b.SetParallelism((threads + procs - 1) / procs)
			var seed atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				op := newOp(rand.New(rand.NewSource(seed.Add(1))))
				for pb.Next() {
					if err := op(); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), unit)
		})
	}
}

// Figure 15: 50 % Get / 50 % Set; the paper reports ~178K ops/sec at
// 128 threads.
func BenchmarkFigure15WorkloadA(b *testing.B) {
	c := benchCluster(b, core.Config{}, 0)
	cl, err := c.OpenBucket("bench")
	if err != nil {
		b.Fatal(err)
	}
	ycsbLoad(b, cl)
	ctx, doc := context.Background(), ycsbDoc(rand.New(rand.NewSource(2)))
	ycsbSweep(b, "ops/sec", func(rng *rand.Rand) func() error {
		// rand.Zipf needs s > 1, so its hot keys are slightly hotter than
		// under YCSB's zipfian constant of 0.99.
		zipf := rand.NewZipf(rng, 1.01, 1, ycsbRecords-1)
		return func() error {
			key := ycsbKey(zipf.Uint64())
			var err error
			if rng.Intn(2) == 0 {
				_, err = cl.Get(ctx, key)
			} else {
				_, err = cl.Set(ctx, key, doc, 0)
			}
			return err
		}
	})
}

// Figure 16: 95 % N1QL range scans of 1–100 keys from a uniform start
// key, 5 % inserts of new keys; the paper reports ~5400 queries/sec at
// 128 threads.
func BenchmarkFigure16WorkloadE(b *testing.B) {
	c := benchCluster(b, core.Config{}, 0)
	if _, err := c.Query("CREATE PRIMARY INDEX ON `bench`", executor.Options{}); err != nil {
		b.Fatal(err)
	}
	cl, err := c.OpenBucket("bench")
	if err != nil {
		b.Fatal(err)
	}
	ycsbLoad(b, cl)
	var inserted atomic.Uint64
	inserted.Store(ycsbRecords)
	doc := ycsbDoc(rand.New(rand.NewSource(2)))
	const stmt = "SELECT meta().id FROM `bench` WHERE meta().id >= $1 LIMIT $2"
	ycsbSweep(b, "queries/sec", func(rng *rand.Rand) func() error {
		return func() error {
			if rng.Intn(20) == 0 {
				_, err := cl.Set(context.Background(), ycsbKey(inserted.Add(1)-1), doc, 0)
				return err
			}
			_, err := c.Query(stmt, executor.Options{Params: map[string]any{
				"1": ycsbKey(uint64(rng.Int63n(ycsbRecords))), "2": float64(1 + rng.Intn(100)),
			}})
			return err
		}
	})
}

// --- Claim §1 / §2.3.3: sub-millisecond memory-first KV operations ---

func BenchmarkKVLatency(b *testing.B) {
	c := benchCluster(b, core.Config{}, 1)
	cl, err := c.OpenBucket("bench")
	if err != nil {
		b.Fatal(err)
	}
	doc := []byte(`{"name": "user", "age": 30, "city": "SF"}`)
	cl.Set(context.Background(), "warm", doc, 0)
	b.Run("Get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cl.Get(context.Background(), "warm"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cl.Set(context.Background(), "warm", doc, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Claim §2.3.2 / §3.1.1: the durability-cost ladder ---
//
// "Most users choose to receive a response immediately once the data
// hits memory, or ... replicate the data to one other node ... the
// latency hit with the replication option is significantly less than
// waiting for persistence, especially when using spinning disks."
// Expected ordering: Async < ReplicateTo1 < PersistTo1 << SpinningDisk.

func BenchmarkDurabilityLevels(b *testing.B) {
	doc := []byte(`{"payload": "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`)
	run := func(b *testing.B, c *core.Cluster, dur core.DurabilityOptions) {
		cl, err := c.OpenBucket("bench")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := fmt.Sprintf("doc%06d", i%1024)
			if _, err := cl.SetWithOptions(context.Background(), key, doc, 0, 0, 0, dur); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Async", func(b *testing.B) {
		c := benchCluster(b, core.Config{}, 1)
		run(b, c, core.DurabilityOptions{})
	})
	b.Run("ReplicateTo1", func(b *testing.B) {
		c := benchCluster(b, core.Config{}, 1)
		run(b, c, core.DurabilityOptions{ReplicateTo: 1})
	})
	b.Run("PersistTo1", func(b *testing.B) {
		c := benchCluster(b, core.Config{}, 1)
		run(b, c, core.DurabilityOptions{PersistTo: true})
	})
	b.Run("PersistTo1-SpinningDisk", func(b *testing.B) {
		// 4ms simulated device latency per flush batch ≈ a 7200rpm seek.
		c := benchCluster(b, core.Config{DiskDelay: 4 * time.Millisecond}, 1)
		run(b, c, core.DurabilityOptions{PersistTo: true})
	})
}

// --- Claim §5.1.2: covering indexes beat index+fetch ---

func BenchmarkCoveringVsFetch(b *testing.B) {
	c := benchCluster(b, core.Config{}, 0)
	cl, _ := c.OpenBucket("bench")
	for i := 0; i < 2000; i++ {
		doc := fmt.Sprintf(`{"email": "user%05d@x.com", "age": %d, "bio": "%s"}`,
			i, 20+i%50, "filler filler filler filler filler filler filler")
		cl.Set(context.Background(), fmt.Sprintf("u%05d", i), []byte(doc), 0)
	}
	if _, err := c.Query("CREATE INDEX byEmail ON `bench`(email)", executor.Options{}); err != nil {
		b.Fatal(err)
	}
	// Warm the index.
	if _, err := c.Query(`SELECT email FROM `+"`bench`"+` WHERE email >= "user00000@x.com" LIMIT 1`,
		executor.Options{Consistency: executor.RequestPlus}); err != nil {
		b.Fatal(err)
	}
	// Covered: only the indexed field is projected.
	b.Run("Covering", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := c.Query(`SELECT email FROM `+"`bench`"+` WHERE email >= "user01000@x.com" AND email < "user01100@x.com"`, executor.Options{})
			if err != nil || len(res.Rows) != 100 {
				b.Fatalf("%d rows, %v", len(res.Rows), err)
			}
		}
	})
	// Not covered: projecting a non-indexed field forces the Fetch.
	b.Run("IndexPlusFetch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := c.Query(`SELECT email, age FROM `+"`bench`"+` WHERE email >= "user01000@x.com" AND email < "user01100@x.com"`, executor.Options{})
			if err != nil || len(res.Rows) != 100 {
				b.Fatalf("%d rows, %v", len(res.Rows), err)
			}
		}
	})
}

// --- Claim §4.5.3: PrimaryScan cost grows linearly with bucket size ---

func BenchmarkPrimaryScanLinear(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000, 8000} {
		b.Run(fmt.Sprintf("docs-%d", n), func(b *testing.B) {
			c := benchCluster(b, core.Config{}, 0)
			cl, _ := c.OpenBucket("bench")
			for i := 0; i < n; i++ {
				cl.Set(context.Background(), fmt.Sprintf("d%06d", i), []byte(fmt.Sprintf(`{"v": %d}`, i)), 0)
			}
			if _, err := c.Query("CREATE PRIMARY INDEX ON `bench`", executor.Options{}); err != nil {
				b.Fatal(err)
			}
			stmt := "SELECT COUNT(*) AS n FROM `bench` WHERE v >= 0"
			if _, err := c.Query(stmt, executor.Options{Consistency: executor.RequestPlus}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Query(stmt, executor.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if got := res.Rows[0].(map[string]any)["n"]; got != float64(n) {
					b.Fatalf("count %v, want %d", got, n)
				}
			}
		})
	}
}

// --- Claim §3.1.2 / §3.2.3: stale=ok vs stale=false under writes ---

func BenchmarkScanConsistency(b *testing.B) {
	setup := func(b *testing.B) (*core.Cluster, func()) {
		c := benchCluster(b, core.Config{}, 0)
		cl, _ := c.OpenBucket("bench")
		for i := 0; i < 1000; i++ {
			cl.Set(context.Background(), fmt.Sprintf("d%05d", i), []byte(fmt.Sprintf(`{"age": %d}`, i%80)), 0)
		}
		if _, err := c.Query("CREATE INDEX byAge ON `bench`(age)", executor.Options{}); err != nil {
			b.Fatal(err)
		}
		// Background writer keeps the index slightly behind. Throttled:
		// an unthrottled writer on a single-core host outruns the
		// indexer without bound and request_plus waits diverge.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			ticker := time.NewTicker(500 * time.Microsecond)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
				}
				cl.Set(context.Background(), fmt.Sprintf("d%05d", i%1000), []byte(fmt.Sprintf(`{"age": %d}`, i%80)), 0)
				i++
			}
		}()
		return c, func() { close(stop); wg.Wait() }
	}
	stmt := "SELECT age FROM `bench` WHERE age = 40"
	b.Run("NotBounded", func(b *testing.B) {
		c, stop := setup(b)
		defer stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Query(stmt, executor.Options{Consistency: executor.NotBounded}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RequestPlus", func(b *testing.B) {
		c, stop := setup(b)
		defer stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Query(stmt, executor.Options{Consistency: executor.RequestPlus}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Claim §6.1.1: memory-optimized GSI vs standard (disk) mode ---
//
// "These new indexes will reside completely in memory, dramatically
// reducing dependence on disk ... as indexes can keep up with higher
// mutation rates." Measured at the indexer-maintenance level.

func BenchmarkGSIStorageModes(b *testing.B) {
	mkIndexer := func(b *testing.B, mode gsi.StorageMode) *gsi.Indexer {
		def := gsi.Def{Name: "bench", Keyspace: "bench", SecExprs: []string{"age"}, Mode: mode}
		ix, err := gsi.NewStandaloneIndexer(def, filepath.Join(b.TempDir(), "idx.log"))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(ix.Close)
		return ix
	}
	run := func(b *testing.B, ix *gsi.Indexer) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Apply(gsi.KeyVersion{
				Index: "bench", VB: 0, Seqno: uint64(i + 1),
				DocID:   fmt.Sprintf("doc%07d", i%10000),
				Entries: [][]any{{float64(i % 100)}},
			})
		}
	}
	b.Run("Standard-Maintain", func(b *testing.B) { run(b, mkIndexer(b, gsi.Standard)) })
	b.Run("MemoryOptimized-Maintain", func(b *testing.B) { run(b, mkIndexer(b, gsi.MemoryOptimized)) })

	scan := func(b *testing.B, ix *gsi.Indexer) {
		for i := 0; i < 10000; i++ {
			ix.Apply(gsi.KeyVersion{Index: "bench", VB: 0, Seqno: uint64(i + 1),
				DocID: fmt.Sprintf("doc%07d", i), Entries: [][]any{{float64(i % 100)}}})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			items, err := ix.Scan(context.Background(), gsi.ScanOptions{EqualKey: []any{float64(i % 100)}, HasEqual: true})
			if err != nil || len(items) == 0 {
				b.Fatal("empty scan")
			}
		}
	}
	b.Run("Standard-Scan", func(b *testing.B) { scan(b, mkIndexer(b, gsi.Standard)) })
	b.Run("MemoryOptimized-Scan", func(b *testing.B) { scan(b, mkIndexer(b, gsi.MemoryOptimized)) })
}

// --- Claim §4.3.3: append-only sequential writes + online compaction ---

func BenchmarkStorageAppendAndCompact(b *testing.B) {
	b.Run("Append", func(b *testing.B) {
		f, err := storage.Open(filepath.Join(b.TempDir(), "vb.couch"), false)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		val := make([]byte, 1024)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := storage.Record{
				Meta:  storage.Meta{Key: fmt.Sprintf("k%07d", i%5000), Seqno: uint64(i + 1), CAS: uint64(i)},
				Value: val,
			}
			if err := f.Append([]storage.Record{rec}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Compact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f, err := storage.Open(filepath.Join(b.TempDir(), fmt.Sprintf("vb%d.couch", i)), false)
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 512)
			seq := uint64(0)
			for k := 0; k < 500; k++ {
				for ver := 0; ver < 10; ver++ {
					seq++
					f.Append([]storage.Record{{
						Meta:  storage.Meta{Key: fmt.Sprintf("k%04d", k), Seqno: seq},
						Value: val,
					}})
				}
			}
			b.StartTimer()
			if err := f.Compact(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			f.Close()
			b.StartTimer()
		}
	})
}

// --- Claim §3.1.2 / §4.3.3: reduce values pre-computed in the tree ---
//
// "This allows for very fast aggregation at query time": a reduce
// query reads O(log n) node annotations instead of scanning rows.

func BenchmarkViewReduceVsScan(b *testing.B) {
	setup := func(b *testing.B) (*views.Engine, *vbucket.VBucket) {
		f, err := storage.Open(filepath.Join(b.TempDir(), "vb.couch"), false)
		if err != nil {
			b.Fatal(err)
		}
		vb := vbucket.New(0, f, vbucket.Active, vbucket.Config{})
		b.Cleanup(func() { vb.Close(); f.Close() })
		eng := views.NewEngine()
		b.Cleanup(eng.Close)
		eng.AttachVB(0, vb.Producer())
		if err := eng.Define(views.Definition{
			Name:   "sales",
			Map:    views.MapSpec{Key: "doc.region", Value: "doc.amount"},
			Reduce: "_sum",
		}); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			doc := fmt.Sprintf(`{"region": "r%02d", "amount": %d}`, i%20, i%500)
			vb.Set(context.Background(), fmt.Sprintf("sale%06d", i), []byte(doc), 0, 0, 0, 0)
		}
		// Let the indexer catch up once.
		if _, err := eng.Query(context.Background(), "sales", views.QueryOptions{
			Stale: views.StaleFalse, WaitSeqnos: map[int]uint64{0: vb.HighSeqno()},
		}); err != nil {
			b.Fatal(err)
		}
		return eng, vb
	}
	b.Run("ReduceFromTree", func(b *testing.B) {
		eng, _ := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := eng.Query(context.Background(), "sales", views.QueryOptions{Reduce: true})
			if err != nil || len(rows) != 1 {
				b.Fatal(err)
			}
		}
	})
	b.Run("ScanAndAggregate", func(b *testing.B) {
		eng, _ := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := eng.Query(context.Background(), "sales", views.QueryOptions{})
			if err != nil {
				b.Fatal(err)
			}
			sum := 0.0
			for _, r := range rows {
				sum += r.Value.(float64)
			}
			if sum == 0 {
				b.Fatal("zero sum")
			}
		}
	})
}

// --- Claim §2.3.2: write aggregation at the persistence level ---
//
// "Asynchrony 'buys time' for the system to handle spikes in the load;
// it also provides an opportunity for repeated updates to an object to
// be aggregated at the level of persistence." The flusher deduplicates
// each batch by key; a hot-key workload should therefore write far
// fewer disk records per client mutation than a unique-key workload.

func BenchmarkWriteAggregation(b *testing.B) {
	run := func(b *testing.B, hotKeys int) {
		f, err := storage.Open(filepath.Join(b.TempDir(), "vb.couch"), false)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		// A slow simulated disk lets the queue build up, creating the
		// aggregation opportunity the paper describes.
		vb := vbucket.New(0, f, vbucket.Active, vbucket.Config{DiskDelay: 2 * time.Millisecond})
		defer vb.Close()
		val := []byte(`{"v": "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := fmt.Sprintf("k%07d", i%hotKeys)
			if _, err := vb.Set(context.Background(), key, val, 0, 0, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
		if err := vb.DrainDisk(60 * time.Second); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		// Disk records actually written per client mutation: the
		// aggregation factor.
		written := countRecords(b, f)
		b.ReportMetric(float64(written)/float64(b.N), "disk_records/op")
	}
	b.Run("HotKeys-16", func(b *testing.B) { run(b, 16) })
	b.Run("UniqueKeys", func(b *testing.B) { run(b, 1<<30) })
}

// countRecords derives how many record versions the file holds. All
// records in this bench are the same size, so bytes convert to record
// counts exactly: total = live / (1 - fragmentation).
func countRecords(b *testing.B, f *storage.VBFile) int {
	frag := f.Stats().Fragmentation()
	if frag >= 1 {
		b.Fatal("bad fragmentation")
	}
	return int(float64(f.Stats().Items)/(1-frag) + 0.5)
}

// TestMain silences example/bench storage noise in CI environments.
func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
