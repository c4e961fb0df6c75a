// Command cbtop is a live terminal console over a running cbserver —
// the reproduction's cbstats/"Couchbase console" view. It polls any
// one node's /cluster/metrics, /cluster/health and /cluster/events
// aggregates and decodes them into the server's own types
// (rest.NodeSnapshot and friends), so each frame shows the whole
// cluster: the worst-of health roll-up with every member's checks,
// one row per member with build/uptime and KV and wire latency
// quantiles, then per member its bucket rows (items, memory, flush
// queue, DCP lag), transport and hot-path counters and latency
// tables, and the origin-tagged merged event tail. A single process
// is the one-member frame.
//
// Usage:
//
//	cbtop -addr http://localhost:8091
//	cbtop -interval 2s -events 15
//	cbtop -count 1        # one frame, no screen clearing (scripts)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"couchgo/internal/rest"
)

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:8091", "cbserver base URL")
		server    = flag.String("server", "", "cbserver host:port (shorthand for -addr http://host:port)")
		interval  = flag.Duration("interval", time.Second, "refresh interval")
		count     = flag.Int("count", 0, "frames to draw before exiting (0: forever)")
		maxEvents = flag.Int("events", 10, "event-tail length")
	)
	flag.Parse()
	if *server != "" {
		*addr = "http://" + *server
	}

	client := &http.Client{Timeout: 5 * time.Second}
	clear := *count != 1 // a single scripted frame shouldn't wipe the scrollback

	for frame := 0; *count == 0 || frame < *count; frame++ {
		if frame > 0 {
			time.Sleep(*interval)
		}
		s := pollSnapshot(client, *addr, *maxEvents)
		if clear {
			fmt.Print("\x1b[H\x1b[2J")
		}
		fmt.Print(render(s, *maxEvents))
	}
	_ = os.Stdout.Sync()
}

// pollSnapshot fetches one frame's worth of state. Metrics and health
// are required; a failed event fetch only costs the tail.
func pollSnapshot(client *http.Client, addr string, maxEvents int) snapshot {
	s := snapshot{Addr: addr, When: time.Now()}
	s.Err = poll(client, addr+"/cluster/metrics", &s.Metrics)
	if s.Err == nil {
		s.Err = poll(client, addr+"/cluster/health", &s.Health)
	}
	if s.Err == nil {
		var ev rest.ClusterEvents
		if poll(client, fmt.Sprintf("%s/cluster/events?limit=%d", addr, maxEvents), &ev) == nil {
			s.Events = ev.Events
		}
	}
	return s
}

// poll GETs a JSON endpoint into out. Non-2xx/503 bodies still decode
// (the health endpoints speak JSON at 503 by design).
func poll(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
