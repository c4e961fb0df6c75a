// Command couchbench is the repository's benchmark: one seeded,
// self-checking harness that generates its own load, spawns its own
// clusters, runs five named workloads closed-loop, and decomposes an
// operation's latency by module in a separate traced pass (the
// "ladder"). See README.md in this directory.
//
// The driver's form runs one workload in one process and prints one
// JSON object as the last line of standard output:
//
//	couchbench --workload lib.kv-a --seed 42 --seconds 8 --trace 0
//
// With no --workload it runs every workload, untraced and traced, each
// in a fresh child process, and writes out/result.json; -compare reads
// two such files:
//
//	couchbench -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// runConfig is one process's settings. Only seed, seconds and warmup
// change what is measured, and -compare refuses results that differ in
// any of them.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	warmup   time.Duration
	trace    bool
	cbserver string // the built cbserver binary, next to this executable
}

// The harness runs from the root of the checkout (run.sh sees to that)
// and writes nowhere else.
var (
	outDir     = filepath.Join("bench", "out") // result files, trace files, logs of failed runs
	scratchDir = ".bench_build"                // cluster data directories, removed on exit
)

// Pinned durations. The issue's 5 s warm-up and 20 s window do not fit
// the driver's total-time cap (114 runs and two builds in 3420 s, with
// three set-ups in every untraced run); these do.
const (
	defaultSeconds = 12
	defaultWarmup  = 1 * time.Second
)

// watchdogLimit bounds one workload process. Operations carry no
// per-op timeout (a context with a deadline costs more than an
// in-process Get), so a hung server would otherwise hang the harness.
const watchdogLimit = 170 * time.Second

var teardown cleanups

func main() {
	var cfg runConfig
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload and print the driver's JSON line (default: run all, write out/result.json)")
	flag.Uint64Var(&cfg.seed, "seed", 42, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", defaultSeconds, "measured seconds per run (the issue's -measure)")
	flag.DurationVar(&cfg.warmup, "warmup", defaultWarmup, "closed-loop warm-up before the measured window, discarded")
	traceFlag := flag.Int("trace", 0, "1: measure the per-layer metrics (counters and ladder) instead of the end-to-end ones")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()
	cfg.trace = *traceFlag != 0

	if compare {
		if flag.NArg() != 2 {
			fatal("usage: couchbench -compare old.json new.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if cfg.seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		fatal("locate executable: %v", err)
	}
	cfg.cbserver = filepath.Join(filepath.Dir(exe), "cbserver")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal("%v", err)
	}

	if cfg.workload == "" {
		os.Exit(runAll(exe, cfg))
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fatal("unknown workload %q", cfg.workload)
	}
	if w.wire {
		if _, err := os.Stat(cfg.cbserver); err != nil {
			fatal("cbserver binary: %v (build it with bench/run.sh)", err)
		}
	}

	teardown.exitOnSignal()
	time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintf(os.Stderr, "couchbench: %s still running after %s, giving up\n", cfg.workload, watchdogLimit)
		teardown.run()
		os.Exit(3)
	})
	// The harness shares two cores with the system under test; its own
	// GC cycles would otherwise steal from it. cbserver makes the same
	// choice for itself (-gc-percent 300).
	debug.SetGCPercent(300)

	res, err := runWorkload(cfg, w)
	teardown.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "couchbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := writeJSON(filepath.Join(outDir, res.fileName()), res); err != nil {
		fatal("%v", err)
	}
	res.print(os.Stdout)
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		fatal("%v", err)
	}
	// A run whose checks failed still exits 0: the driver reads the
	// verdict from "correct". The full run (runAll) exits non-zero.
	fmt.Println(string(line))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "couchbench: "+format+"\n", args...)
	teardown.run()
	os.Exit(1)
}

// runWorkload is one process's work: set up, measure, check, tear down.
func runWorkload(cfg runConfig, w workload) (*result, error) {
	runDir := filepath.Join(scratchDir, "run-"+strconv.Itoa(os.Getpid()))
	sweepStaleRuns(scratchDir)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	teardown.add(func() { os.RemoveAll(runDir) })

	res := newResult(cfg, w)
	var err error
	if cfg.trace {
		err = measureLayers(cfg, w, runDir, res)
	} else {
		err = measureEndToEnd(cfg, w, runDir, res)
	}
	return res, err
}

// withCluster sets a cluster up, hands it to fn and tears it down. It
// returns how long the set-up took.
func withCluster(cfg runConfig, w workload, dir string, res *result, fn func(*env) error) (time.Duration, error) {
	t0 := time.Now()
	e, err := setup(cfg, w, dir)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	took := time.Since(t0)
	teardown.add(e.close) // for an interrupt or the watchdog; close is idempotent
	defer e.close()
	res.SetupPhases = e.phases
	if err := fn(e); err != nil {
		return 0, err
	}
	if res.Correct && e.wc != nil {
		// Logs of a clean run are noise; a failed run keeps them.
		for _, s := range e.wc.servers {
			os.Remove(s.logPath)
		}
	}
	return took, nil
}

// measureEndToEnd is the untraced run: the numbers a user of the
// system would see. The measured seconds are spread over setupRepeats
// freshly set-up clusters and their sub-windows pooled: how a cluster
// happens to come up (which goroutine the scheduler favours, where the
// files land) moves a whole run by several percent, and a median over
// three clusters moves less than any one of them. The same three
// set-ups give setup_s its median.
func measureEndToEnd(cfg runConfig, w workload, runDir string, res *result) error {
	part := time.Duration(cfg.seconds) * time.Second / setupRepeats
	pooled := &runResult{}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		last := i == setupRepeats-1
		took, err := withCluster(cfg, w, filepath.Join(runDir, "setup"+strconv.Itoa(i)), res, func(e *env) error {
			run := runClients(e, cfg.seed+uint64(i)*segmentSalt, part, windowsFor(part), 0)
			pooled.absorb(run)
			// One kill -9 and restart per run is enough to show the
			// fsync ordering; it goes to the last cluster.
			return res.check(e, run, w.sync && last)
		})
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	res.addRun(pooled)
	res.EndToEnd["ops_per_s"] = pooled.throughput()
	for kind, name := range map[opKind]string{opRead: "read", opWrite: "write"} {
		p50, _ := pooled.latency(kind, 0.50)
		res.EndToEnd[name+"_p50_us"] = p50
	}
	res.EndToEnd["setup_s"] = windowStat(setups, "s")
	return nil
}

// segmentSalt separates the op streams of the run's three clusters.
const segmentSalt = 0x9e3779b1

// windowsFor splits a measured interval into one-second sub-windows (at
// least two), over which every metric's spread is reported.
func windowsFor(d time.Duration) int { return max(int(d/time.Second), 2) }

// check applies the correctness checks that fail the run. restart adds
// the durable-restart check, which only the untraced run of a -sync
// workload makes: the traced run goes on to use the cluster.
func (res *result) check(e *env, run *runResult, restart bool) error {
	ctx := context.Background()
	if n := run.failed(); n > 0 {
		res.fail("%d of %d operations failed; first: %v", n, run.attempted(), run.firstError())
	}
	if run.attempted() == 0 {
		res.fail("no operation completed inside the measured window")
	}
	if restart {
		// kill -9 both servers and restart them on the same -dir. The
		// OS page cache survives a process kill, so this checks that an
		// ack was only sent after the append and its fsync were issued
		// in order, not that the device retained the bytes.
		res.Notes = append(res.Notes, "durable-restart check: SIGKILL leaves the OS page cache intact, so it verifies fsync ordering, not the device")
		if err := e.wc.restart(e.w.replicas); err != nil {
			return fmt.Errorf("restart after SIGKILL: %w", err)
		}
		e.client = e.wc.client
	}
	for _, c := range run.clients {
		if err := c.verifyAcked(ctx); err != nil {
			res.fail("%v", err)
		}
		res.VerifiedKeys += len(c.acked)
	}
	return nil
}

// runAll is the full run: every workload untraced, then traced, each
// in a fresh child process so one workload's heap and background work
// cannot leak into the next.
func runAll(exe string, cfg runConfig) int {
	full := fullResult{Host: hostFingerprint(), Seed: cfg.seed, Seconds: cfg.seconds,
		WarmupSeconds: cfg.warmup.Seconds(), Clients: numClients, Workloads: map[string]*workloadResult{}}
	code := 0
	for _, w := range workloads {
		wr := &workloadResult{}
		full.Workloads[w.name] = wr
		for _, trace := range []int{0, 1} {
			res, err := runChild(exe, cfg, w.name, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "couchbench: %s --trace %d: %v\n", w.name, trace, err)
				code = 1
				continue
			}
			if !res.Correct {
				code = 1
			}
			if trace == 0 {
				wr.Untraced = res
			} else {
				wr.Traced = res
			}
		}
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, full); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("\nwrote %s\n", path)
	return code
}

func hostFingerprint() host {
	h := host{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		h.CPUModel = cpuModel(string(b))
	}
	return h
}
