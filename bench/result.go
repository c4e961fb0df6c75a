package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// metricDef names one metric of BENCHMARK.json; a test holds the file
// and these lists in step. Every --trace 0 run emits every end-to-end
// metric and every --trace 1 run every layer metric. A layer metric
// reads 0 on a workload whose operations never enter that layer.
type metricDef struct {
	name, unit string
	// better and bound are set for end-to-end metrics only: the
	// direction, and the share of the old value by which the metric may
	// get worse before -compare calls the row worse.
	better string
	bound  float64
}

var endToEndDefs = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var layerDefs = []metricDef{
	{name: "cache.hit_ratio", unit: "ratio"}, {name: "cache.bgfetches_per_op", unit: "1/op"}, {name: "cache.evictions_per_s", unit: "1/s"},
	{name: "cache.evict_races", unit: "count"}, {name: "cache.get_ns", unit: "ns"}, {name: "cache.set_ns", unit: "ns"},
	{name: "vbucket.self_ns", unit: "ns"}, {name: "vbucket.flusher_batch_items", unit: "count"}, {name: "vbucket.queue_depth_max", unit: "count"},
	{name: "storage.write_amp", unit: "ratio"}, {name: "storage.appends_per_fsync", unit: "count"}, {name: "storage.fsync_p50_us", unit: "us"},
	{name: "storage.compactions", unit: "count"}, {name: "storage.get_us", unit: "us"}, {name: "storage.persist_wait_us", unit: "us"},
	{name: "dcp.replicate_wait_us", unit: "us"},
	{name: "memcproto.codec_ns", unit: "ns"}, {name: "transport.roundtrip_us", unit: "us"}, {name: "transport.frames_per_syscall", unit: "ratio"},
	{name: "transport.bytes_per_op", unit: "B/op"}, {name: "core.self_us", unit: "us"},
	{name: "n1ql.parse_us", unit: "us"}, {name: "planner.plan_us", unit: "us"}, {name: "gsi.scan_us", unit: "us"}, {name: "executor.fetch_us", unit: "us"},
	{name: "executor.other_us", unit: "us"}, {name: "query.rows_examined_per_row", unit: "ratio"},
	{name: "proc.cpu_us_per_op", unit: "us/op"}, {name: "proc.allocs_per_op", unit: "1/op"},
	// Info: measured, printed, never gated. The p99s are here under the
	// issue's calibration rule (run-to-run spread above a tenth).
	{name: "info.read_p99_us", unit: "us"}, {name: "info.write_p99_us", unit: "us"}, {name: "info.error_rate", unit: "ratio"},
	{name: "ladder.trace_overhead", unit: "ratio"}, {name: "ladder.whole_p50_us", unit: "us"}, {name: "ladder.self_sum_share", unit: "ratio"},
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

// result is what one workload process measured. The driver's JSON line
// is a projection of it; the whole of it goes to out/.
type result struct {
	Workload      string          `json:"workload"`
	Trace         bool            `json:"trace"`
	Seed          uint64          `json:"seed"`
	Seconds       int             `json:"seconds"`
	WarmupSeconds float64         `json:"warmup_seconds"`
	Clients       int             `json:"clients"`
	Params        map[string]any  `json:"params"`
	Correct       bool            `json:"correct"`
	Failures      []string        `json:"failures,omitempty"`
	Notes         []string        `json:"notes,omitempty"`
	Attempted     int64           `json:"attempted"`
	Failed        int64           `json:"failed"`
	VerifiedKeys  int             `json:"verified_keys"`
	EndToEnd      map[string]stat `json:"end_to_end,omitempty"`
	Layers        map[string]stat `json:"layers,omitempty"`
	// SetupPhases splits the last set-up's time by phase.
	SetupPhases map[string]float64 `json:"setup_phases_s,omitempty"`
	// LadderSelf is the median self time of every ladder rung, by op
	// kind: span − children, the per-module decomposition of one op.
	LadderSelf map[string]map[string]stat `json:"ladder_self_us,omitempty"`
}

func newResult(cfg runConfig, w workload) *result {
	return &result{
		Workload: w.name, Trace: cfg.trace, Seed: cfg.seed, Seconds: cfg.seconds,
		WarmupSeconds: cfg.warmup.Seconds(), Clients: numClients, Correct: true,
		Params: map[string]any{
			"wire": w.wire, "sync": w.sync, "nodes": numNodes, "replicas": w.replicas,
			"vbuckets": numVBuckets, "records": w.mix.Records, "record_bytes": recordLen,
			"read_share": w.mix.ReadShare, "zipfian": w.mix.Zipfian, "quota_share": w.quotaShare,
			"replicate_to": w.durable.ReplicateTo, "persist_to": w.durable.PersistTo,
		},
		EndToEnd: map[string]stat{}, Layers: map[string]stat{},
	}
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *result) addRun(run *runResult) {
	r.Attempted += run.attempted()
	r.Failed += run.failed()
}

func (r *result) fileName() string {
	t := "0"
	if r.Trace {
		t = "1"
	}
	return "run-" + r.Workload + "-trace" + t + ".json"
}

func (r *result) metrics() (names []string, m map[string]stat) {
	if r.Trace {
		return metricNames(layerDefs), r.Layers
	}
	return metricNames(endToEndDefs), r.EndToEnd
}

// print lists every metric by name and unit for a person.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  %d s measured, %.1f s warm-up, %d closed-loop clients  trace=%v\n",
		r.Workload, r.Seed, r.Seconds, r.WarmupSeconds, r.Clients, r.Trace)
	names, m := r.metrics()
	for _, name := range names {
		s := m[name]
		fmt.Fprintf(w, "  %-30s %14.4f %-6s", name, s.Value, s.Unit)
		if s.Samples > 0 {
			fmt.Fprintf(w, "  n=%d", s.Samples)
		}
		if s.WinMin != 0 || s.WinMax != 0 {
			fmt.Fprintf(w, "  windows [%.4f, %.4f]", s.WinMin, s.WinMax)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, keys read back %d\n", r.Attempted, r.Failed, r.VerifiedKeys)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
}

// driverLine is the object the driver reads from the last line.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) driverLine() driverLine {
	names, m := r.metrics()
	d := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	for _, name := range names {
		d.Metrics[name] = driverMetric{Value: m[name].Value, Unit: m[name].Unit}
	}
	return d
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fullResult is out/result.json, the file -compare reads.
type fullResult struct {
	Host          host                       `json:"host"`
	Seed          uint64                     `json:"seed"`
	Seconds       int                        `json:"seconds"`
	WarmupSeconds float64                    `json:"warmup_seconds"`
	Clients       int                        `json:"clients"`
	Workloads     map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	// End-to-end numbers always come from the untraced run.
	Untraced *result `json:"untraced"`
	Traced   *result `json:"traced"`
}

type host struct {
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func cpuModel(cpuinfo string) string {
	sc := bufio.NewScanner(strings.NewReader(cpuinfo))
	for sc.Scan() {
		if name, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// runChild runs one workload in a fresh process of this executable,
// passes its human-readable output through, and reads back the result
// file it wrote.
func runChild(exe string, cfg runConfig, workload string, trace int) (*result, error) {
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-warmup", cfg.warmup.String(),
		"-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	// Everything but the driver's JSON line is for people.
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	if err != nil {
		return nil, err
	}
	res := &result{Workload: workload, Trace: trace != 0}
	b, err := os.ReadFile(filepath.Join(outDir, res.fileName()))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, res); err != nil {
		return nil, err
	}
	return res, nil
}
