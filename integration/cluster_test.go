//go:build clustertest

// Package integration holds process-level cluster tests: they build
// the real cbserver binary, launch several OS processes, and kill one
// with SIGKILL — nothing in-process stands in for the failure. Heavy
// by design, so the package hides behind the clustertest build tag
// and runs via `make cluster-test` (tier-1 stays fast).
package integration

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/core"
	"couchgo/internal/events"
	"couchgo/internal/transport"
)

// freePorts reserves n distinct TCP ports by binding and releasing
// them. A race with other processes is possible but harmless in CI.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	listeners := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		listeners = append(listeners, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return ports
}

// buildServer compiles cbserver once into the test's temp dir.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cbserver")
	cmd := exec.Command("go", "build", "-race", "-o", bin, "couchgo/cmd/cbserver")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build cbserver: %v\n%s", err, out)
	}
	return bin
}

type proc struct {
	cmd    *exec.Cmd
	kvAddr string
	http   string
}

func startProc(t *testing.T, bin string, httpPort, kvPort int, args ...string) *proc {
	t.Helper()
	kvAddr := fmt.Sprintf("127.0.0.1:%d", kvPort)
	base := []string{
		"-listen", fmt.Sprintf("127.0.0.1:%d", httpPort),
		"-kv-addr", kvAddr,
		"-replicas", "1",
		"-vbuckets", "64",
		"-kv-heartbeat", "100ms",
		"-dir", t.TempDir(),
	}
	cmd := exec.Command(bin, append(base, args...)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start cbserver: %v", err)
	}
	p := &proc{cmd: cmd, kvAddr: kvAddr, http: fmt.Sprintf("http://127.0.0.1:%d", httpPort)}
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	return p
}

// events fetches one process's journal, oldest first.
func (p *proc) events(t *testing.T) []events.Event {
	t.Helper()
	resp, err := http.Get(p.http + "/events")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var body struct{ Events []events.Event }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Logf("decode %s/events: %v", p.http, err)
	}
	return body.Events
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestThreeProcessClusterKill9 is the acceptance run: three cbserver
// processes form a cluster over the binary KV wire protocol, serve
// durable writes (ReplicateTo=1, every ack gated on a cross-process
// replica ack), survive kill -9 of one member through the
// coordinator's auto-failover, and lose no acknowledged write.
func TestThreeProcessClusterKill9(t *testing.T) {
	bin := buildServer(t)
	ports := freePorts(t, 6)

	seed := startProc(t, bin, ports[0], ports[1], "-cluster-size", "3")
	p1 := startProc(t, bin, ports[2], ports[3], "-join", seed.kvAddr)
	p2 := startProc(t, bin, ports[4], ports[5], "-join", seed.kvAddr)
	procs := []*proc{seed, p1, p2}

	// A smart client over the real wire protocol, seeded with the
	// coordinator's KV address; the cluster map arrives in-band.
	pool := transport.NewPool()
	defer pool.Close()
	router := transport.NewRouter("default", []string{seed.kvAddr}, pool)
	cl := core.NewClient(router, "default")
	ctx := context.Background()

	// Formation: durable writes only succeed once the minted map is
	// applied everywhere and replica streams flow between processes.
	waitFor(t, 30*time.Second, "cluster formation (first durable write)", func() bool {
		_, err := cl.SetWithOptions(ctx, "probe", []byte(`{"probe":true}`), 0, 0, 0,
			core.DurabilityOptions{ReplicateTo: 1, Timeout: 2 * time.Second})
		if err != nil {
			router.Invalidate()
		}
		return err == nil
	})

	const writes = 100
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("doc-%d", i)
		if _, err := cl.SetWithOptions(ctx, key, []byte(fmt.Sprintf(`{"i":%d}`, i)), 0, 0, 0,
			core.DurabilityOptions{ReplicateTo: 1, Timeout: 10 * time.Second}); err != nil {
			t.Fatalf("durable Set %s: %v", key, err)
		}
	}

	// kill -9 a non-coordinator member: no shutdown hooks run, its
	// sockets die mid-stream. The balanced map puts a node's replicas on
	// the next node in address order, so the victim is the member just
	// before the seed: the seed holds its replicas.
	addrs := []string{seed.kvAddr, p1.kvAddr, p2.kvAddr}
	sort.Strings(addrs)
	victim := p1
	if addrs[(slices.Index(addrs, seed.kvAddr)+2)%3] == p2.kvAddr {
		victim = p2
	}
	if err := victim.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	victim.cmd.Wait()

	// Auto-failover: the seed's journal must show the causal chain —
	// the decider's failover, the replicas promoted while the successor
	// map is applied, the entry that closes the apply.
	waitFor(t, 30*time.Second, "auto-failover -> vb takeover -> applied cluster map on the seed", func() bool {
		want := []string{"auto-failover", "vb takeover", "applied cluster map"}
		for _, e := range seed.events(t) {
			if len(want) > 0 && strings.HasPrefix(e.Msg, want[0]) && (want[0] != "auto-failover" || e.Node == victim.kvAddr) {
				want = want[1:]
			}
		}
		return len(want) == 0
	})

	// No acknowledged write lost: every durable write must still read
	// back through the re-routed map. Retries cover the convergence
	// window while the smart client refreshes its map via NMVB.
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("doc-%d", i)
		var it cache.Item
		var err error
		deadline := time.Now().Add(30 * time.Second)
		for {
			it, err = cl.Get(ctx, key)
			if err == nil || time.Now().After(deadline) {
				break
			}
			router.Invalidate()
			time.Sleep(100 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("Get %s after kill -9: %v", key, err)
		}
		if want := fmt.Sprintf(`{"i":%d}`, i); string(it.Value) != want {
			t.Fatalf("Get %s after kill -9: value %q, want %q", key, it.Value, want)
		}
	}

	// Survivors must still accept durable writes against the reduced
	// replica set (vbuckets that lost their only replica have an empty
	// ack set, so ReplicateTo=1 would block forever; plain writes and
	// persistence must keep working).
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("post-failover-%d", i)
		if _, err := cl.Set(ctx, key, []byte(`{"after":true}`), 0); err != nil {
			t.Fatalf("post-failover Set %s: %v", key, err)
		}
	}

	_ = procs
}
