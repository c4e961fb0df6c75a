package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"couchgo/internal/analytics"
	"couchgo/internal/cache"
	"couchgo/internal/cmap"
	"couchgo/internal/events"
	"couchgo/internal/executor"
	"couchgo/internal/fts"
	"couchgo/internal/metrics"
	"couchgo/internal/vbucket"
	"couchgo/internal/views"
)

// FuzzFaultSchedule is the one fault harness. A schedule's first byte
// sets a 1 ms DiskDelay (bit 0) and FullEviction on "default" (bit 1);
// each later byte is a step on a 3-node, 1-replica, 16-vBucket cluster,
// its low nibble the kind and its high nibble the operand (a node in
// join order, or a bucket). Four clients Set, Get and Delete their own
// keys on "default", which has a GSI index and a view on n, an FTS index
// on kind, and analytics enabled. After each step that runs (a Kill or
// Failover that would leave one live node is skipped), the clients pause
// and one checker reads the logged history:
//
//  1. No acked write is lost under its durability: a read returns the
//     last acked version, or after a death since that ack at least the
//     last one known on two copies (acked ReplicateTo:1, or seen on a
//     replica), unless two hazards (deaths or rebalances) passed since.
//     A write whose error leaves its outcome open may or may not be read.
//  2. Every op error is one the route loop returns, a durability timeout,
//     or a lost partition after two deaths; with no death, no route error.
//  3. Every map validates and names no failed-over node; a Rebalance or
//     CreateBucket balances over the live data nodes.
//  4. With every vBucket served, a request_plus GSI query, a stale=false
//     view query and a consistent analytics query each return KV's keys
//     with their n, once, and a consistent FTS search KV's keys, once.
//  5. A failed AddNode or CreateBucket leaves nothing behind.
//
// At the end the dead are failed over and the cluster rebalanced; every
// key must be served, running replicas match, and buckets take writes.
func FuzzFaultSchedule(f *testing.F) {
	for _, row := range faultRows {
		f.Add(row.schedule)
	}
	f.Fuzz(func(t *testing.T, schedule []byte) {
		h := newFaultHarness(t, schedule)
		h.run(schedule)
		for _, row := range faultRows {
			if row.expect != nil && string(row.schedule) == string(schedule) {
				row.expect(h)
			}
		}
	})
}

type stepKind uint8

const (
	stepAddNode stepKind = iota
	stepRebalance
	stepCreateBucket
	stepSever
	stepKill
	stepFailover
	stepEvict
	stepBlockedAddNode
	stepBlockedCreateBucket
	numStepKinds
)

var stepNames = [numStepKinds]string{"add node", "rebalance", "create bucket other", "sever replication of",
	"kill", "fail over", "evict values on", "blocked add node", "blocked create bucket late on"}

// at encodes a step on operand n.
func (k stepKind) at(n int) byte { return byte(n<<4) | byte(k) }

const withDiskDelay, withFullEviction = 1, 2

// faultRows are replayed by `go test`; expect is a check beyond the five.
var faultRows = []struct {
	name     string
	schedule []byte
	expect   func(h *faultHarness)
}{
	{name: "every writer of the routing tables (TestRouteUnderTopologyChurn)", schedule: []byte{0, stepAddNode.at(0),
		stepRebalance.at(0), stepCreateBucket.at(0), stepSever.at(1), stepKill.at(1), stepFailover.at(1), stepRebalance.at(0)}},
	{name: "divergent history rolls the index back, two windows of it (TestFeedRollbackOnFailover)", schedule: []byte{0, stepSever.at(0), stepSever.at(0), stepKill.at(0), stepFailover.at(0)},
		expect: func(h *faultHarness) {
			if got := gsiRollbacks.Value(); got <= h.rollbacks {
				h.Errorf("couchgo_feed_rollbacks_total{service=gsi} = %d, want > %d", got, h.rollbacks)
			}
		}},
	{name: "failover promotes replicas", schedule: []byte{0, stepKill.at(1), stepFailover.at(1)},
		expect: servedAfter("step 2, fail over node1")},
	{name: "a new bucket skips a dead node (TestCreateBucketSkipsKilledNode)", schedule: []byte{0, stepKill.at(1), stepCreateBucket.at(0)}},
	{name: "scale out under writes", schedule: []byte{0, stepAddNode.at(0), stepRebalance.at(0)},
		expect: servedAfter("step 2, rebalance")},
	{name: "a node that cannot be provisioned never joins (TestAddNodeFailsWhole)", schedule: []byte{0, stepBlockedAddNode.at(0), stepRebalance.at(0)}},
	{name: "scale in (TestRebalanceScaleIn)", schedule: []byte{0, stepKill.at(2), stepFailover.at(2), stepRebalance.at(0)}},
	{name: "a bucket that cannot be provisioned is never made", schedule: []byte{0, stepBlockedCreateBucket.at(1), stepSever.at(2), stepRebalance.at(0)}},
	{name: "evicted values across a failover, full eviction, slow disk", schedule: []byte{withDiskDelay | withFullEviction,
		stepEvict.at(0), stepKill.at(0), stepEvict.at(1), stepFailover.at(0), stepRebalance.at(0), stepEvict.at(2)}},
	{name: "a death mid scale-out, then a second death", schedule: []byte{withFullEviction, stepAddNode.at(0),
		stepKill.at(3), stepRebalance.at(0), stepFailover.at(3), stepRebalance.at(0), stepKill.at(0), stepFailover.at(0)}},
	// Kill node1, then eight kills of node0 (operand 3 of 3 nodes) that
	// would each leave one live node, then create a bucket.
	{name: "skipped steps cost nothing", schedule: []byte("\x00\x1444444444\x02"),
		expect: func(h *faultHarness) {
			for _, s := range h.ran {
				if strings.HasPrefix(s, "kill node0") && strings.Contains(s, "traffic") {
					h.Errorf("a skipped step waited for traffic: %s", s)
				}
			}
		}},
}

// servedAfter expects the checkpoints after step and at the end to have
// read every key and checked the indexes against them.
func servedAfter(step string) func(h *faultHarness) {
	return func(h *faultHarness) {
		if !slices.Contains(h.served, step) || !slices.Contains(h.served, "end") {
			h.Errorf("every key served and the indexes checked at %v, want %s and end", h.served, step)
		}
	}
}

var gsiRollbacks = metrics.Default.Counter("couchgo_feed_rollbacks_total", "service", "gsi")

const (
	faultClients  = 4
	faultKeys     = 12                    // per client
	faultMaxSteps = 12                    // later bytes are not run
	faultTraffic  = 32                    // ops after each step
	faultDeadOp   = 20 * time.Millisecond // an op's deadline while its active is down
	// A schedule's wall time, checked after each phase: the fuzz worker
	// counts an input that runs 10 s as a hang, with -race or without.
	faultBudget = 8 * time.Second
)

var faultBuckets = [...]string{"default", "other", "late"}

// faultDoc is a client's value: its op count, and a field the FTS index
// reads.
const faultDoc = `{"n":%d,"kind":"doc"}`

// keyHistory is one key's writes in op order ("" is absent). acked is
// the last version known present and durable on two copies; ackedAt
// and durableAt count the kills and hazards ended when that was known.
type keyHistory struct {
	key                string
	vb                 int
	versions           []string
	acked, durable     int
	ackedAt, durableAt int64
}

type faultHarness struct {
	*testing.T
	c               *Cluster
	cl              *Client
	ran             []string // the steps decoded so far, each with its wall time by phase
	at              string   // the one running, for the report
	start           time.Time
	seq0, rollbacks uint64
	full            bool
	keys            []*keyHistory
	nodes           []cmap.NodeID
	down, failed    map[cmap.NodeID]bool // down: killed or failed over
	made            map[string]bool
	served          []string     // the checkpoints that read every key and checked the indexes
	gate            sync.RWMutex // each op holds it shared; a checkpoint, whole
	stop            atomic.Bool
	wg              sync.WaitGroup
	ops, routeErrs  atomic.Int64
	// Steps started [0] and ended [1] that may lose a write on one copy
	// (kills: a death) or on two (hazards: also a Rebalance).
	kills, hazards [2]atomic.Int64
}

func newFaultHarness(t *testing.T, schedule []byte) *faultHarness {
	var settings byte
	if len(schedule) > 0 {
		settings = schedule[0]
	}
	start := time.Now()
	c, err := NewCluster(Config{Dir: t.TempDir(), NumVBuckets: 16, DiskDelay: time.Duration(settings&withDiskDelay) * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	h := &faultHarness{T: t, c: c, start: start, seq0: events.Default.LastSeq(), rollbacks: gsiRollbacks.Value(), full: settings&withFullEviction != 0,
		down: map[cmap.NodeID]bool{}, failed: map[cmap.NodeID]bool{}, made: map[string]bool{"default": true}}
	t.Cleanup(h.report)
	for i := 0; i < 3; i++ {
		h.addNode()
	}
	if err := c.CreateBucket("default", BucketOptions{NumReplicas: 1, FullEviction: h.full}); err != nil {
		t.Fatal(err)
	}
	h.cl, _ = c.OpenBucket("default") // it exists: created above
	_, err = c.Query("CREATE INDEX byN ON `default`(n)", executor.Options{})
	eng, _ := c.FTS("default")
	if err = errors.Join(err, c.DefineView("default", views.Definition{Name: "byN", Map: views.MapSpec{Key: "doc.n"}}),
		eng.Define(fts.IndexDef{Name: "byKind", Fields: []string{"kind"}}), c.EnableAnalytics("default")); err != nil {
		t.Fatal(err)
	}
	m, _ := c.BucketMap("default")
	for i := 0; i < faultClients*faultKeys; i++ {
		key := fmt.Sprintf("c%dk%02d", i/faultKeys, i%faultKeys) // spread over all 16 vBuckets
		_, vb := m.NodeForKey(key)
		h.keys = append(h.keys, &keyHistory{key: key, vb: vb, versions: []string{""}})
	}
	return h
}

// report prints the schedule's steps with their wall times under -v, and
// a failed one's with where it failed and the journal.
func (h *faultHarness) report() {
	if !h.Failed() && !testing.Verbose() {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "schedule (full eviction %v):\n  %s\n", h.full, strings.Join(h.ran, "\n  "))
	if h.Failed() {
		fmt.Fprintf(&b, "failed at: %s\njournal:\n", h.at)
		for _, e := range events.Default.Events(events.Filter{SinceSeq: h.seq0}) {
			fmt.Fprintf(&b, "  %d %s/%s node=%s bucket=%s vb=%d %s %v\n", e.Seq, e.Type, e.Severity, e.Node, e.Bucket, e.VB, e.Msg, e.Fields)
		}
	}
	h.Log(b.String())
}

// took appends a phase's wall time to the last step's entry, if any,
// and fails a schedule that has run over its budget.
func (h *faultHarness) took(phase string, since time.Time) {
	if n := len(h.ran); n > 0 {
		h.ran[n-1] += fmt.Sprintf(", %s %v", phase, time.Since(since).Round(time.Millisecond))
	}
	if ran := time.Since(h.start); ran > faultBudget && !h.Failed() {
		h.Errorf("%s: the schedule has run %v by the end of its %s phase, over its budget of %v",
			h.at, ran.Round(time.Millisecond), phase, faultBudget)
	}
}

func (h *faultHarness) run(schedule []byte) {
	for i := 0; i < faultClients; i++ {
		h.wg.Add(1)
		go h.client(i)
	}
	defer func() {
		h.stop.Store(true)
		h.wg.Wait()
	}()
	h.at = "start"
	h.checkpoint(false)
	for i := 1; i < min(len(schedule), 1+faultMaxSteps) && !h.Failed(); i++ {
		before := h.ops.Load()
		if !h.step(schedule[i]) {
			continue // a skipped step left the topology as it was
		}
		// Every step is followed by traffic over the topology it left.
		t := time.Now()
		for deadline := t.Add(1500 * time.Millisecond); h.ops.Load() < before+faultTraffic && time.Now().Before(deadline) && !h.Failed(); {
			time.Sleep(time.Millisecond)
		}
		h.took("traffic", t)
		h.checkpoint(false)
	}
	if !h.Failed() {
		h.end()
	}
}

// client runs one client's ops on its own keys until the harness
// stops, logging each write and checking each read. An op whose active
// is on a node that is down would only spend the route loop's retries
// until a failover, so it gets a short deadline, and no ReplicateTo:
// a durability wait ends with a bare context error, not a route error.
func (h *faultHarness) client(i int) {
	defer h.wg.Done()
	rng := rand.New(rand.NewSource(int64(i)))
	mine := h.keys[i*faultKeys : (i+1)*faultKeys]
	for n := 0; !h.stop.Load() && !h.Failed(); n++ {
		k := mine[rng.Intn(len(mine))]
		h.gate.RLock()
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		dead := h.onDeadNode(k)
		if dead {
			ctx, cancel = context.WithTimeout(ctx, faultDeadOp)
		}
		if r := rng.Intn(8); r < 3 {
			it, err := h.cl.Get(ctx, k.key)
			h.read(k, it, err)
		} else {
			value, dur := fmt.Sprintf(faultDoc, n), DurabilityOptions{}
			if r == 7 {
				value = ""
			} else if rng.Intn(3) == 0 && !dead {
				dur = DurabilityOptions{ReplicateTo: 1, Timeout: 200 * time.Millisecond}
			}
			k.versions = append(k.versions, value)
			kills, hazards := h.kills[1].Load(), h.hazards[1].Load()
			var err error
			if value == "" {
				err = h.cl.Delete(ctx, k.key, 0)
			} else {
				_, err = h.cl.SetWithOptions(ctx, k.key, []byte(value), 0, 0, 0, dur)
			}
			switch {
			case err == nil, value == "" && errors.Is(err, cache.ErrKeyNotFound): // absent either way
				k.acked, k.ackedAt = len(k.versions)-1, kills
				if dur.ReplicateTo > 0 {
					k.durable, k.durableAt = k.acked, hazards
				}
			case !errors.Is(err, vbucket.ErrTimeout): // either way the outcome is open
				h.opErr(k, err)
			}
		}
		cancel()
		h.gate.RUnlock()
		h.ops.Add(1)
	}
}

// onDeadNode reports whether the current map puts k's active on a node
// that is not alive. It reads the map and Node.Alive, both lock-free;
// h.down belongs to the steps.
func (h *faultHarness) onDeadNode(k *keyHistory) bool {
	n, err := h.c.Node(h.c.topo.Map("default").Active(k.vb))
	return err == nil && !n.Alive()
}

// read checks a Get of k against its history (property 1): the version read, or -1.
func (h *faultHarness) read(k *keyHistory, it cache.Item, err error) int {
	if err != nil && !errors.Is(err, cache.ErrKeyNotFound) {
		h.opErr(k, err)
		return -1
	}
	floor := 0
	if h.kills[0].Load() == k.ackedAt {
		floor = k.acked
	} else if h.hazards[0].Load()-k.durableAt <= 1 {
		floor = k.durable
	}
	for v := len(k.versions) - 1; v >= floor; v-- {
		if k.versions[v] == string(it.Value) {
			return v
		}
	}
	h.Errorf("%s: Get(%s) read %q; the history admits versions %d.. of %q (acked %d, durable %d)",
		h.at, k.key, it.Value, floor, k.versions, k.acked, k.durable)
	return -1
}

// opErr applies property 2 to a failed op.
func (h *faultHarness) opErr(k *keyHistory, err error) {
	switch {
	case retryableRouteErr(err):
		h.routeErrs.Add(1)
	case strings.Contains(err.Error(), "partition lost") && h.kills[0].Load() >= 2:
	default:
		h.Errorf("%s: an op on %s failed with %v, which no route loop returns", h.at, k.key, err)
	}
}

func (h *faultHarness) addNode() {
	id := cmap.NodeID(fmt.Sprintf("node%d", len(h.nodes)))
	if _, err := h.c.AddNode(id, cmap.AllServices); err != nil {
		h.Fatalf("%s: add %s: %v", h.at, id, err)
	}
	h.nodes = append(h.nodes, id)
}

// live lists the data nodes up, in the order they joined.
func (h *faultHarness) live() []cmap.NodeID {
	return slices.DeleteFunc(slices.Clone(h.nodes), func(n cmap.NodeID) bool { return h.down[n] })
}

// hazard runs a step that may lose a write on one copy (kill) or on two.
func (h *faultHarness) hazard(kill bool, do func() error) error {
	k := map[bool]int64{true: 1}[kill]
	h.kills[0].Add(k)
	h.hazards[0].Add(1)
	defer h.kills[1].Add(k)
	defer h.hazards[1].Add(1)
	return do()
}

// step decodes and runs one byte, and reports whether it ran. A step may
// fail by design in the state it meets (a Rebalance with a dead node
// mapped); no other may fail.
func (h *faultHarness) step(b byte) (ran bool) {
	c, kind, node := h.c, stepKind(b&0x0f)%numStepKinds, h.nodes[int(b>>4)%len(h.nodes)]
	switch kind {
	case stepAddNode, stepBlockedAddNode:
		node = cmap.NodeID(fmt.Sprintf("node%d", len(h.nodes)))
	case stepRebalance, stepCreateBucket:
		node = ""
	case stepSever:
		node = cmap.NodeID(faultBuckets[int(b>>4)%len(faultBuckets)])
	}
	h.ran = append(h.ran, strings.TrimSpace(stepNames[kind]+" "+string(node)))
	h.at = fmt.Sprintf("step %d, %s", len(h.ran), h.ran[len(h.ran)-1])
	defer h.took("step", time.Now())
	var err error
	var byDesign bool
	switch kind {
	case stepAddNode, stepBlockedAddNode:
		if kind == stepBlockedAddNode {
			h.blocked(filepath.Join(c.cfg.Dir, string(node)), func() error { _, err := c.AddNode(node, cmap.AllServices); return err })
			if _, err := c.Node(node); err != ErrNoSuchNode {
				h.Errorf("%s: the node that failed to join is in the table: Node = %v", h.at, err)
			}
		}
		h.addNode()
	case stepRebalance:
		err = h.hazard(false, c.Rebalance)
		byDesign = errors.Is(err, ErrNodeDown) && len(h.live())+len(h.failed) < len(h.nodes)
		if err == nil {
			h.maps(faultBuckets[:]...)
		}
	case stepCreateBucket, stepBlockedCreateBucket:
		name := faultBuckets[1]
		if kind == stepBlockedCreateBucket {
			if name = faultBuckets[2]; !h.made[name] && !h.down[node] {
				h.blocked(filepath.Join(c.cfg.Dir, string(node), "data", name), func() error { return c.CreateBucket(name, BucketOptions{NumReplicas: 1}) })
				h.unmade(name)
			}
		}
		err = c.CreateBucket(name, BucketOptions{NumReplicas: 1})
		byDesign = errors.Is(err, ErrBucketExists) && h.made[name]
		if err == nil {
			h.made[name] = true
			h.maps(name)
		}
	case stepSever:
		err = c.SeverReplication(string(node))
		byDesign = errors.Is(err, ErrNoSuchBucket) && !h.made[string(node)]
	case stepKill, stepFailover:
		if !h.down[node] && len(h.live()) <= 2 {
			h.Logf("%s: skipped, it would leave one live node", h.at)
			return false
		}
		kill := c.Kill
		if kind == stepFailover {
			kill, h.failed[node] = c.Failover, true
		}
		if h.down[node] {
			err = kill(node)
		} else {
			err = h.hazard(true, func() error { return kill(node) })
		}
		h.down[node] = true
	case stepEvict:
		err = h.evict(node)
		byDesign = errors.Is(err, ErrNodeDown) && h.down[node]
	}
	if err != nil && !byDesign {
		h.Errorf("%s: %v", h.at, err)
	} else if err != nil {
		h.Logf("%s: failed by design: %v", h.at, err)
	}
	h.maps()
	return true
}

// blocked runs an AddNode or CreateBucket with a file where it makes a
// directory, which must fail; the caller checks what it left (property 5).
func (h *faultHarness) blocked(blocker string, do func() error) {
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		h.Fatal(err)
	}
	if err := do(); err == nil {
		h.Errorf("%s: succeeded over a file at %s", h.at, blocker)
	}
	if err := os.Remove(blocker); err != nil {
		h.Fatal(err)
	}
}

// unmade checks that a bucket that failed to be made left no trace.
func (h *faultHarness) unmade(name string) {
	listed := slices.Contains(h.c.BucketNames(), name)
	_, open := h.c.OpenBucket(name)
	_, vbs := h.c.NumVBuckets(name)
	held := slices.ContainsFunc(h.c.Nodes(), func(n *Node) bool { _, ok := n.buckets.get(name); return ok })
	if listed || open != ErrNoSuchBucket || vbs != ErrNoSuchBucket || h.c.topo.Map(name) != nil || held {
		h.Errorf("%s: %s left a trace: listed %v, OpenBucket %v, NumVBuckets %v, a map %v, a node's footprint %v",
			h.at, name, listed, open, vbs, h.c.topo.Map(name) != nil, held)
	}
}

// maps checks property 3: each map validates and names no failed-over
// node, and a bucket named in even is balanced over the live data nodes.
func (h *faultHarness) maps(even ...string) {
	live := h.live()
	for b := range h.made {
		m, err := h.c.BucketMap(b)
		if err == nil {
			err = m.Validate()
		}
		balanced := slices.Contains(even, b)
		bad := func(n cmap.NodeID) bool { return h.failed[n] || balanced && !slices.Contains(live, n) }
		actives := map[cmap.NodeID]int{}
		for vb := 0; err == nil && vb < m.NumVBuckets; vb++ {
			chain := append([]cmap.NodeID{m.Active(vb)}, m.Replicas(vb)...)
			if actives[chain[0]]++; slices.ContainsFunc(chain, bad) || balanced && len(chain) != 1+min(1, len(live)-1) {
				err = fmt.Errorf("vb %d has chain %v; live %v, failed over %v", vb, chain, live, h.failed)
			}
		}
		for _, n := range live {
			if err == nil && balanced && actives[n] < m.NumVBuckets/len(live) {
				err = fmt.Errorf("live %s holds %d of %d actives", n, actives[n], m.NumVBuckets)
			}
		}
		if err != nil {
			h.Errorf("%s: map of %s: %v", h.at, b, err)
		}
	}
}

// evict drops the values of node's copies of "default" as the pager
// does, only clean ones: clients paused, copies caught up, on disk.
func (h *faultHarness) evict(node cmap.NodeID) error {
	h.gate.Lock()
	defer h.gate.Unlock()
	m, _ := h.c.BucketMap("default")
	for vb := 0; vb < m.NumVBuckets; vb++ {
		cp, err := h.c.NodeVB(node, "default", vb)
		if err != nil {
			return err
		}
		if src, _ := h.c.NodeVB(m.Active(vb), "default", vb); cp == nil || src == nil || cp.HighSeqno() < src.HighSeqno() {
			continue
		}
		if err := cp.DrainDisk(10 * time.Second); err != nil {
			return err
		}
		for _, k := range h.keys {
			if it, err := cp.Table.Get(k.key, 0); k.vb == vb && err == nil && it.Seqno <= cp.PersistedSeqno() {
				cp.Table.EvictValue(k.key)
			}
		}
	}
	return nil
}

// checkpoint pauses the clients and reads every served key (property 1):
// what it reads is the key's state from here on, on two copies once a
// replica holds it. With all served it checks the indexes (property 4);
// the final one requires each replica with a running link to match.
func (h *faultHarness) checkpoint(final bool) {
	defer h.took("checkpoint", time.Now())
	h.gate.Lock()
	defer h.gate.Unlock()
	m, _ := h.c.BucketMap("default")
	served := true
	var present []string
	var pending []*keyHistory
	for _, k := range h.keys {
		if a := m.Active(k.vb); a == "" || h.down[a] {
			served = false
			continue // its reads would only spend the route loop's retries
		}
		it, err := h.cl.Get(context.Background(), k.key)
		v := h.read(k, it, err)
		if served = served && v >= 0; v < 0 {
			continue
		} else if k.versions[v] != "" {
			present = append(present, k.key+" "+k.versions[v])
		}
		k.acked, k.ackedAt, k.durable = v, h.kills[1].Load(), min(k.durable, v)
		pending = append(pending, k)
	}
	wait := map[bool]time.Duration{false: 500 * time.Millisecond, true: 5 * time.Second}[final]
	for deadline := time.Now().Add(wait); len(pending) > 0 && time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		pending = slices.DeleteFunc(pending, func(k *keyHistory) bool {
			held, wait := h.onReplica(m, k)
			if held {
				k.durable, k.durableAt = k.acked, h.hazards[1].Load()
			}
			return held || !wait
		})
	}
	if final && (len(pending) > 0 || !served && h.kills[0].Load() < 2) {
		h.Errorf("%s: every key served: %v; %d replicas never came to hold their active's version", h.at, served, len(pending))
	}
	if served && !h.Failed() {
		h.indexes(present)
		h.served = append(h.served, h.at)
	}
}

// onReplica reports whether a live replica of k's vBucket holds k's
// acked version, and when not, whether a running link may yet bring it.
func (h *faultHarness) onReplica(m *cmap.Map, k *keyHistory) (held, wait bool) {
	want := k.versions[k.acked]
	for _, r := range m.Replicas(k.vb) {
		cp, _ := h.c.NodeVB(r, "default", k.vb) // nil on a dead node
		if cp == nil {
			continue
		}
		it, err := cp.Table.Get(k.key, 0)
		if err == nil && string(it.Value) == want || errors.Is(err, cache.ErrKeyNotFound) && want == "" && !h.full {
			return true, false
		}
		// An evicted value (or a key under full eviction) cannot be told
		// apart; a severed link never heals on an unchanged chain.
		_, _, running := h.c.LinkOf(r, "default", k.vb)
		wait = wait || running && !errors.Is(err, cache.ErrValueEvicted) && (want != "" || !h.full)
	}
	return false, wait
}

// indexes checks property 4: a request_plus GSI query, a stale=false
// view query and a consistent analytics query each return exactly the
// present keys with their n, and a consistent FTS search the present
// keys, once.
func (h *faultHarness) indexes(present []string) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	line := func(id any, n any) string { f, _ := n.(float64); return fmt.Sprintf("%s "+faultDoc, id, int64(f)) }
	const stmt = "SELECT META().id AS id, n FROM `default` WHERE n >= 0"
	res, err := h.c.Query(stmt, executor.Options{Ctx: ctx, Consistency: executor.RequestPlus})
	var gsi, view, an, search, keys []string
	for i := 0; err == nil && i < len(res.Rows); i++ {
		gsi = append(gsi, line(res.Rows[i].(map[string]any)["id"], res.Rows[i].(map[string]any)["n"]))
	}
	rows, verr := h.c.QueryView(ctx, "default", "byN", views.QueryOptions{Stale: views.StaleFalse})
	for _, r := range rows {
		view = append(view, line(r.ID, r.Key))
	}
	anRows, aerr := h.c.AnalyticsQuery(ctx, "default", stmt, analytics.QueryOptions{WaitSeqnos: h.c.ConsistencyVector("default")})
	for _, r := range anRows {
		an = append(an, line(r.(map[string]any)["id"], r.(map[string]any)["n"]))
	}
	eng, _ := h.c.FTS("default")
	hits, ferr := eng.SearchTerm(ctx, "byKind", "doc", fts.SearchOptions{WaitSeqnos: h.c.ConsistencyVector("default")})
	for _, hit := range hits {
		search = append(search, hit.ID)
	}
	for _, p := range present {
		keys = append(keys, p[:strings.IndexByte(p, ' ')])
	}
	for _, s := range [][]string{present, gsi, view, an, search, keys} {
		slices.Sort(s)
	}
	if err != nil || verr != nil || aerr != nil || ferr != nil || !slices.Equal(gsi, present) || !slices.Equal(view, present) ||
		!slices.Equal(an, present) || !slices.Equal(search, keys) {
		h.Errorf("%s: KV holds %v;\nGSI request_plus returned %v (%v);\nview stale=false returned %v (%v);\n"+
			"analytics returned %v (%v);\nFTS returned %v (%v)", h.at, present, gsi, err, view, verr, an, aerr, search, ferr)
	}
}

// end fails over the dead, rebalances, checks and writes every bucket.
func (h *faultHarness) end() {
	for i, n := range h.nodes {
		if h.down[n] && !h.failed[n] {
			h.step(stepFailover.at(i))
		}
	}
	h.step(stepRebalance.at(0))
	h.at = "end"
	h.checkpoint(true)
	if h.kills[0].Load() == 0 && h.routeErrs.Load() > 0 {
		h.Errorf("%s: %d ops failed with a route error, and no node died", h.at, h.routeErrs.Load())
	}
	for b := range h.made {
		cl, err := h.c.OpenBucket(b)
		for i := 0; err == nil && i < 32; i++ {
			_, err = cl.Set(context.Background(), fmt.Sprintf("end%02d", i), []byte(`{}`), 0)
		}
		if err != nil {
			h.Errorf("%s: bucket %s takes no writes: %v", h.at, b, err)
		}
	}
	h.Logf("%d ops, %d refused after the route loop's retries", h.ops.Load(), h.routeErrs.Load())
}
