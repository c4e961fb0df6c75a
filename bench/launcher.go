package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/transport"
)

// cleanups runs registered teardown steps once, newest first: on normal
// exit, on a failed check, on SIGINT/SIGTERM and on the watchdog. Child
// servers are also started with Pdeathsig, so even a crash of the
// harness that skips this cannot leave one running.
type cleanups struct {
	mu   sync.Mutex
	fns  []func()
	done bool
}

func (c *cleanups) add(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

func (c *cleanups) run() {
	c.mu.Lock()
	fns, done := c.fns, c.done
	c.fns, c.done = nil, true
	c.mu.Unlock()
	if done {
		return
	}
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// exitOnSignal tears everything down when the harness is interrupted.
func (c *cleanups) exitOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		c.run()
		os.Exit(130)
	}()
}

// server is one cbserver child process.
type server struct {
	cmd     *exec.Cmd
	args    []string
	bin     string
	logPath string
	kvAddr  string
	httpURL string
	waited  chan struct{}
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them; the servers bind them a moment later.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

func (s *server) start() error {
	logf, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	s.cmd = exec.Command(s.bin, s.args...)
	s.cmd.Stdout = logf
	s.cmd.Stderr = logf
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return fmt.Errorf("start cbserver: %w", err)
	}
	s.waited = make(chan struct{})
	go func() {
		s.cmd.Wait() // exit status is irrelevant: servers only ever end by kill
		close(s.waited)
	}()
	return nil
}

// kill sends SIGKILL and reaps the child. No shutdown hook runs in the
// server, which is what the durable-restart check wants.
func (s *server) kill() {
	if s.cmd == nil || s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.waited
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// scrape reads the server's Prometheus text exposition.
func (s *server) scrape() (counters, error) {
	resp, err := http.Get(s.httpURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseCounters(string(body)), nil
}

// wireCluster is a cluster of cbserver processes plus a smart client.
type wireCluster struct {
	servers []*server
	pool    *transport.Pool
	router  *transport.NetRouter
	client  *core.Client
}

// startWireCluster never reuses a running cluster: it reserves fresh
// ports, starts the seed with -cluster-size and then the joiners, and
// waits for formation on the smart client's in-band map.
func startWireCluster(cfg runConfig, dir string, nodes, replicas int, syncPersist bool) (*wireCluster, error) {
	ports, err := freePorts(2 * nodes)
	if err != nil {
		return nil, err
	}
	wc := &wireCluster{}
	for i := 0; i < nodes; i++ {
		kv := "127.0.0.1:" + strconv.Itoa(ports[2*i+1])
		args := []string{
			"-listen", "127.0.0.1:" + strconv.Itoa(ports[2*i]),
			"-kv-addr", kv,
			"-bucket", bucketName,
			"-replicas", strconv.Itoa(replicas),
			"-vbuckets", strconv.Itoa(numVBuckets),
			"-dir", filepath.Join(dir, "node"+strconv.Itoa(i)),
		}
		if syncPersist {
			args = append(args, "-sync")
		}
		if i == 0 {
			args = append(args, "-cluster-size", strconv.Itoa(nodes))
		} else {
			args = append(args, "-join", wc.servers[0].kvAddr)
		}
		wc.servers = append(wc.servers, &server{
			bin: cfg.cbserver, args: args, kvAddr: kv,
			httpURL: "http://127.0.0.1:" + strconv.Itoa(ports[2*i]),
			logPath: filepath.Join(outDir, fmt.Sprintf("cbserver-%s-%d.log", cfg.workload, i)),
		})
	}
	for _, s := range wc.servers {
		os.Remove(s.logPath)
	}
	if err := wc.boot(replicas); err != nil {
		wc.close()
		return nil, err
	}
	return wc, nil
}

// boot starts every server and waits until the cluster serves.
func (wc *wireCluster) boot(replicas int) error {
	for _, s := range wc.servers {
		if err := s.start(); err != nil {
			return err
		}
	}
	wc.pool = transport.NewPool()
	wc.router = transport.NewRouter(bucketName, []string{wc.servers[0].kvAddr}, wc.pool)
	wc.client = core.NewClient(wc.router, bucketName)
	return wc.waitFormed(replicas, 30*time.Second)
}

// waitFormed waits on the in-band cluster map, not on a sleep: first
// until the minted map names every process for every vBucket, then
// until one write per vBucket is acknowledged by its replica, which
// proves the DCP-over-TCP links are up.
func (wc *wireCluster) waitFormed(replicas int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var m *cmap.Map
	for {
		var err error
		m, err = wc.router.BucketMap()
		if err == nil && mapComplete(m, len(wc.servers), replicas) {
			break
		}
		for _, s := range wc.servers {
			select {
			case <-s.waited:
				return fmt.Errorf("cbserver %s exited during formation (see %s)", s.kvAddr, s.logPath)
			default:
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster did not form within %s (last map error: %v)", timeout, err)
		}
		wc.router.Invalidate()
		time.Sleep(20 * time.Millisecond)
	}
	ctx := context.Background()
	dur := core.DurabilityOptions{ReplicateTo: replicas, Timeout: time.Second}
	for vb, key := range probeKeys(m.NumVBuckets) {
		for {
			_, err := wc.client.SetWithOptions(ctx, key, []byte(`{"probe":true}`), 0, 0, 0, dur)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("vBucket %d not serving replicated writes within %s: %w", vb, timeout, err)
			}
			wc.router.Invalidate()
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

func mapComplete(m *cmap.Map, nodes, replicas int) bool {
	if m == nil || len(m.Nodes) != nodes {
		return false
	}
	for vb := 0; vb < m.NumVBuckets; vb++ {
		if m.Active(vb) == "" {
			return false
		}
		if len(m.Replicas(vb)) < replicas {
			return false
		}
	}
	return true
}

// probeKeys returns one key per vBucket. They sort before "user…".
func probeKeys(numVB int) []string {
	keys := make([]string, numVB)
	for i, found := 0, 0; found < numVB; i++ {
		k := "probe" + strconv.Itoa(i)
		if vb := cmap.VBucketID(k, numVB); keys[vb] == "" {
			keys[vb] = k
			found++
		}
	}
	return keys
}

// restart SIGKILLs every server and boots them again on the same -dir
// and addresses (so the re-minted map places vBuckets as before).
func (wc *wireCluster) restart(replicas int) error {
	wc.pool.Close()
	for _, s := range wc.servers {
		s.kill()
	}
	return wc.boot(replicas)
}

func (wc *wireCluster) close() {
	if wc.pool != nil {
		wc.pool.Close()
	}
	for _, s := range wc.servers {
		s.kill()
	}
}

// scrape sums the servers' counters.
func (wc *wireCluster) scrape() (counters, error) {
	var all []counters
	for _, s := range wc.servers {
		c, err := s.scrape()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", s.httpURL, err)
		}
		all = append(all, c)
	}
	return sumCounters(all), nil
}

func (wc *wireCluster) pids() []int {
	var out []int
	for _, s := range wc.servers {
		out = append(out, s.pid())
	}
	return out
}

// sweepStaleRuns removes scratch directories left by harness processes
// that no longer exist (a crash can skip the cleanups).
func sweepStaleRuns(scratch string) {
	entries, err := os.ReadDir(scratch)
	if err != nil {
		return
	}
	for _, e := range entries {
		pid, ok := strings.CutPrefix(e.Name(), "run-")
		if !ok {
			continue
		}
		if _, err := os.Stat("/proc/" + pid); os.IsNotExist(err) {
			os.RemoveAll(filepath.Join(scratch, e.Name()))
		}
	}
}
