// Command cbserver runs a couchgo cluster and serves its HTTP API:
// the KV document endpoints, view queries, the N1QL query service, and
// cluster administration (rebalance/failover).
//
// Usage:
//
//	cbserver -listen :8091 -nodes 4 -replicas 1 -bucket default
//
// Networked cluster mode (-kv-addr): each process runs ONE local node
// and serves the binary KV wire protocol; N processes form a cluster.
// The first process (no -join) is the coordinator seed and waits for
// -cluster-size members before minting the cluster map:
//
//	cbserver -listen :8091 -kv-addr :11210 -cluster-size 3 -replicas 1
//	cbserver -listen :8092 -kv-addr :11211 -join 127.0.0.1:11210
//	cbserver -listen :8093 -kv-addr :11212 -join 127.0.0.1:11210
//
// Every process's REST document endpoints route cluster-wide through
// a hybrid smart client (loopback to the local node, sockets to
// peers).
//
// Then:
//
//	curl -X PUT localhost:8091/buckets/default/docs/user::1 -d '{"name":"Dipti"}'
//	curl localhost:8091/buckets/default/docs/user::1
//	curl -X POST localhost:8091/query -d '{"statement":"CREATE PRIMARY INDEX ON default"}'
//	curl -X POST localhost:8091/query -d '{"statement":"SELECT * FROM default"}'
//	curl localhost:8091/metrics
//	curl localhost:8091/stats/detail
//
// Request tracing (off unless -trace-rate > 0):
//
//	cbserver -trace-rate 100 -trace-threshold 50ms
//	curl localhost:8091/traces
//	curl localhost:8091/traces/42
//	curl -X POST localhost:8091/traces/config -d '{"rate": 1}'
//
// Observability (always on; see cmd/cbtop for the live console):
//
//	curl localhost:8091/health
//	curl 'localhost:8091/events?severity=warn'
//	curl 'localhost:8091/events/stream?since=0&timeout=10s'
//
// Failure detection is the watchdog's: with -auto-failover a node it
// holds critical (down with mapped partitions) for consecutive health
// ticks is failed over; a networked seed is always armed, for members
// silent past -kv-failover-after.
//
// Profiling (off unless -debug-addr is set): -debug-addr :6060 serves
// net/http/pprof and expvar on a separate listener that should stay
// private to operators, and turns the mutex profile on (1 contention
// event in 100), so /debug/pprof/mutex says which lock goroutines
// waited on.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/health"
	"couchgo/internal/rest"
	"couchgo/internal/trace"
	"couchgo/internal/transport"
)

func main() {
	var (
		listen       = flag.String("listen", ":8091", "HTTP listen address")
		nodes        = flag.Int("nodes", 4, "number of cluster nodes")
		replicas     = flag.Int("replicas", 1, "bucket replica count (0-3)")
		vbuckets     = flag.Int("vbuckets", cmap.NumVBuckets, "vBucket count")
		dir          = flag.String("dir", "", "storage directory (default: temp)")
		bucket       = flag.String("bucket", "default", "bucket to create")
		syncWrite    = flag.Bool("sync", false, "fsync every persisted batch")
		slowQuery    = flag.Duration("slow-query-threshold", 100*time.Millisecond, "N1QL latency before a statement lands in the slow-query log")
		slowLog      = flag.Int("slow-query-log-size", 64, "slow-query ring buffer capacity")
		traceRate    = flag.Int("trace-rate", 0, "sample 1 in N requests for end-to-end tracing (0 disables)")
		traceSlow    = flag.Duration("trace-threshold", trace.DefaultSlowThreshold, "latency above which a sampled trace is always retained")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof (with the mutex profile sampled) and expvar on this address (empty disables)")
		healthEvery  = flag.Duration("health-interval", time.Second, "watchdog evaluation interval for /health")
		autoFailover = flag.Bool("auto-failover", false, "fail over a node the watchdog holds critical (sustained down with mapped partitions); a networked seed always fails over a silent member")

		kvAddr      = flag.String("kv-addr", "", "binary KV wire-protocol listen address; enables networked cluster mode (one local node per process)")
		join        = flag.String("join", "", "seed process's KV address to join (empty makes this process the coordinator seed)")
		clusterSize = flag.Int("cluster-size", 1, "member processes (including the seed) the coordinator waits for before minting the cluster map")
		advertise   = flag.String("advertise", "", "KV address peers should dial (default: the bound -kv-addr)")
		kvHeartbeat = flag.Duration("kv-heartbeat", 500*time.Millisecond, "member heartbeat interval in networked cluster mode")
		kvFailover  = flag.Duration("kv-failover-after", 0, "heartbeat silence before the seed's watchdog grades a mapped member critical; held so for 2 -health-interval ticks, it is failed over (default 5 heartbeats)")
		gcPercent   = flag.Int("gc-percent", 300, "Go GC target percentage (GOGC); a memory-first cache holds a large stable resident set that each GC cycle rescans, so the default trades headroom for fewer cycles. The item pager, not the GC, bounds cache memory")
	)
	flag.Parse()

	if *gcPercent > 0 {
		debug.SetGCPercent(*gcPercent)
	}

	if *kvAddr != "" && *nodes != 1 {
		log.Printf("networked cluster mode: each process runs one local node (-nodes %d ignored)", *nodes)
		*nodes = 1
	}

	trace.Default.SetRate(*traceRate)
	trace.Default.SetThreshold("", *traceSlow)

	cluster, err := core.NewCluster(core.Config{
		Dir:                *dir,
		NumVBuckets:        *vbuckets,
		SyncPersist:        *syncWrite,
		SlowQueryThreshold: *slowQuery,
		SlowQueryLogSize:   *slowLog,
	})
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	defer cluster.Close()

	for i := 0; i < *nodes; i++ {
		id := cmap.NodeID(fmt.Sprintf("node%d", i))
		if _, err := cluster.AddNode(id, cmap.AllServices); err != nil {
			log.Fatalf("add node: %v", err)
		}
	}
	if err := cluster.CreateBucket(*bucket, core.BucketOptions{NumReplicas: *replicas}); err != nil {
		log.Fatalf("create bucket: %v", err)
	}
	log.Printf("cluster up: %d nodes, bucket %q (%d vbuckets, %d replicas), orchestrator %s",
		*nodes, *bucket, *vbuckets, *replicas, cluster.Orchestrator())
	if *traceRate > 0 {
		log.Printf("tracing 1 in %d requests (slow threshold %s); inspect at /traces", *traceRate, *traceSlow)
	}

	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}

	// The process's one health watchdog, served at /health, and its one
	// failure detector (core's own heartbeat loop stays off): the
	// standard rule set over this cluster, plus, on a networked seed, a
	// liveness check per member. A liveness check held critical for
	// RaiseAfter consecutive ticks triggers the same failover path an
	// operator would hit — the journal records the whole causal chain.
	watchdog := health.New(health.Options{Interval: *healthEvery})
	health.RegisterClusterChecks(watchdog, cluster, health.ClusterCheckConfig{})
	if *autoFailover && *kvAddr == "" {
		health.AutoFailover(watchdog, "node:", cluster.Failover)
		log.Printf("auto-failover armed (health interval %s)", *healthEvery)
	}
	watchdog.Start()
	defer watchdog.Stop()

	api := rest.NewServer(cluster)
	api.SetHealth(watchdog)

	if *kvAddr != "" {
		node, err := transport.StartNode(transport.NodeOptions{
			Cluster:           cluster,
			Bucket:            *bucket,
			KVAddr:            *kvAddr,
			Advertise:         *advertise,
			Join:              *join,
			ClusterSize:       *clusterSize,
			HeartbeatInterval: *kvHeartbeat,
			FailoverAfter:     *kvFailover,
			Watchdog:          watchdog,
			// Peers fetch this node's metrics/health/events/traces over
			// the wire (OpFederate) through the REST layer's Observe.
			Observe: api.Observe,
		})
		if err != nil {
			log.Fatalf("kv transport: %v", err)
		}
		defer node.Close()
		api.SetKVClient(*bucket, core.NewClient(node.Router(), *bucket))
		api.SetFederation(node.Federation())
		if *join == "" {
			log.Printf("kv transport on %s (coordinator seed, waiting for %d members)", node.KVAddr(), *clusterSize)
		} else {
			log.Printf("kv transport on %s (joining %s)", node.KVAddr(), *join)
		}
	}
	srv := &http.Server{Addr: *listen, Handler: api}
	go func() {
		log.Printf("listening on %s", *listen)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("serve: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Print("shutting down")
	srv.Close()
}

// serveDebug exposes the Go runtime's profiling surface on its own
// listener, kept off the data-plane mux so operators can firewall it
// separately. Registration is explicit (the pprof/expvar import side
// effects target http.DefaultServeMux, which we never serve).
func serveDebug(addr string) {
	runtime.SetMutexProfileFraction(100)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	log.Printf("debug server (pprof, expvar) on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("debug server: %v", err)
	}
}
