package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runCompare prints one row per (workload, end-to-end metric) of two
// full-run result files and returns the exit code: 0 when nothing got
// worse, 1 on a "worse" row or a higher error rate, 2 when the files
// cannot be compared. It is how an A/A check and a later PR's
// before/after are read.
//
// A row is "worse" when the new value is worse than the old by more
// than the metric's bound and by more than either run's own sub-window
// spread; "unresolved" when the bound is crossed but not the spread, or
// when the spread is wider than the bound, so that "no change" cannot
// be told from a change of the size the bound is meant to catch.
func runCompare(w io.Writer, oldPath, newPath string) int {
	old, err := readFull(oldPath)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	cur, err := readFull(newPath)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	return compareResults(w, old, cur)
}

func readFull(path string) (*fullResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f fullResult
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func compareResults(w io.Writer, old, cur *fullResult) int {
	if old.Seed != cur.Seed || old.Seconds != cur.Seconds ||
		old.WarmupSeconds != cur.WarmupSeconds || old.Clients != cur.Clients {
		fmt.Fprintf(w, "compare: refusing: runs differ in seed (%d, %d), measured seconds (%d, %d), warm-up (%g s, %g s) or clients (%d, %d)\n",
			old.Seed, cur.Seed, old.Seconds, cur.Seconds, old.WarmupSeconds, cur.WarmupSeconds, old.Clients, cur.Clients)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-13s %14s %14s  %-22s %s\n", "workload", "metric", "old", "new", "new/old", "verdict")
	for _, wl := range workloads {
		o, n := old.Workloads[wl.name], cur.Workloads[wl.name]
		if o == nil || n == nil || o.Untraced == nil || n.Untraced == nil {
			fmt.Fprintf(w, "%-16s missing from one of the files\n", wl.name)
			code = 2
			continue
		}
		for _, d := range endToEndDefs {
			a, b := o.Untraced.EndToEnd[d.name], n.Untraced.EndToEnd[d.name]
			verdict := judge(d, a, b)
			if verdict == "worse" && code == 0 {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-13s %14.4f %14.4f  %6.3f of %-12.4g %s\n",
				wl.name, d.name, a.Value, b.Value, ratio(b.Value, a.Value), a.Value, verdict)
		}
		ea, eb := errorRate(o.Untraced), errorRate(n.Untraced)
		verdict := "ok"
		if eb > ea {
			verdict = "worse"
			if code == 0 {
				code = 1
			}
		}
		fmt.Fprintf(w, "%-16s %-13s %14.6f %14.6f  %-22s %s\n", wl.name, "error_rate", ea, eb, "", verdict)
	}
	return code
}

func errorRate(r *result) float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

// judge compares one metric of two runs.
func judge(d metricDef, old, cur stat) string {
	if old.Value == 0 || cur.Value == 0 {
		return "unresolved"
	}
	// worsening is how much worse cur is than old, as a share of old.
	worsening := (cur.Value - old.Value) / old.Value
	if d.better == "higher" {
		worsening = -worsening
	}
	spread := math.Max(old.windowSpread(), cur.windowSpread())
	switch {
	case worsening > d.bound && worsening > spread:
		return "worse"
	case worsening > d.bound || spread > d.bound:
		return "unresolved"
	}
	return "ok"
}
