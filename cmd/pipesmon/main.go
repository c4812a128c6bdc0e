// pipesmon is the textual counterpart of the paper's performance monitor
// (Fig. 3): a periodic dashboard of rates, selectivities, latency
// quantiles, memory and queue metadata of a live query graph.
//
// It runs in two modes. Standalone (default), it constructs the traffic
// scenario on an in-process DSMS with every query operator decorated by
// the secondary-metadata framework — optionally serving that engine's
// telemetry endpoint with -telemetry. Attached, it renders the same
// dashboard for ANY live DSMS by scraping its telemetry endpoint
// (pipes.Config.TelemetryAddr) over HTTP — no shared process required.
//
// Usage:
//
//	pipesmon [-readings 200000] [-interval 250ms] [-workers 2] [-telemetry :9154]
//	pipesmon -attach host:port [-interval 1s] [-duration 30s]
//
// On the final dashboard pipesmon prints cumulative totals and exits
// non-zero if any operator consumed input but produced no output — the
// silently-dead-operator check for demo pipelines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"pipes"
	"pipes/internal/metadata"
	"pipes/internal/telemetry"
	"pipes/internal/telemetry/flight"
	"pipes/internal/traffic"
)

// scrapeClient bounds every remote request: a wedged or half-dead
// endpoint surfaces as an error within the timeout instead of hanging
// the dashboard forever.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func main() {
	var (
		readings  = flag.Int("readings", 200_000, "number of loop-detector readings to stream (standalone)")
		interval  = flag.Duration("interval", 250*time.Millisecond, "dashboard refresh interval")
		workers   = flag.Int("workers", 2, "scheduler worker threads (standalone)")
		telAddr   = flag.String("telemetry", "", "serve the standalone engine's telemetry endpoint on this addr")
		attach    = flag.String("attach", "", "render the dashboard from a remote telemetry endpoint (host:port)")
		duration  = flag.Duration("duration", 0, "attached mode: stop after this long (0 = until interrupt or remote completion)")
		traceEach = flag.Int("trace", 0, "standalone: sample 1-in-N elements for trace spans (0 = telemetry default)")
	)
	flag.Parse()

	if *attach != "" {
		os.Exit(runAttached(*attach, *interval, *duration))
	}
	os.Exit(runStandalone(*readings, *interval, *workers, *telAddr, *traceEach))
}

// row is one operator's dashboard line, keyed by metadata kind, plus the
// bottleneck attribution ("why slow") for the operator when one exists.
type row struct {
	op   string
	vals map[string]float64
	why  flight.Diagnosis
}

func runStandalone(readings int, interval time.Duration, workers int, telAddr string, traceEach int) int {
	gen := traffic.NewGenerator(traffic.Config{Seed: 1, MaxReadings: readings})
	dsms := pipes.NewDSMS(pipes.Config{
		Workers:        workers,
		MonitorQueries: true,
		TelemetryAddr:  telAddr,
		TraceEvery:     traceEach,
	})
	dsms.RegisterStream("traffic", gen.Source("traffic"), 1000)

	for _, q := range []string{traffic.QueryAvgHOVSpeed, traffic.QueryAvgSectionSpeed} {
		query, err := dsms.RegisterQuery(q)
		if err != nil {
			panic(err)
		}
		query.Subscribe(pipes.NewCounter("results", 1))
	}

	done := make(chan struct{})
	go func() {
		dsms.Start()
		dsms.Wait()
		close(done)
	}()
	if telAddr != "" {
		// Start has bound the endpoint by the time the goroutine above
		// launches the workers; poll briefly for the resolved address.
		for i := 0; i < 100 && dsms.TelemetryAddr() == ""; i++ {
			time.Sleep(time.Millisecond)
		}
		fmt.Printf("telemetry endpoint: http://%s/metrics\n", dsms.TelemetryAddr())
	}

	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-done:
			dead := render(monitorRows(dsms), true)
			fmt.Println("\nscheduler counters:")
			c := dsms.Scheduler.Contention()
			fmt.Printf("  %-24s %d\n", "sched.batches", c.Batches)
			fmt.Printf("  %-24s %d\n", "sched.lock_conflicts", c.LockConflicts)
			fmt.Printf("  %-24s %d\n", "sched.steal_misses", c.StealMisses)
			fmt.Printf("  %-24s %d\n", "sched.steals", c.Steals)
			fmt.Println("\nworkload complete")
			return deadExit(dead)
		case <-tick.C:
			render(monitorRows(dsms), false)
		}
	}
}

func runAttached(addr string, interval, duration time.Duration) int {
	base := "http://" + strings.TrimPrefix(addr, "http://")
	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	var deadline <-chan time.Time
	if duration > 0 {
		deadline = time.After(duration)
	}
	fmt.Printf("attached to %s\n", base)

	var last []row
	scrapes := 0
	tick := time.NewTicker(interval)
	defer tick.Stop()
	finish := func() int {
		dead := render(last, true)
		return deadExit(dead)
	}
	for {
		select {
		case <-interrupt:
			return finish()
		case <-deadline:
			return finish()
		case <-tick.C:
			rows, complete, err := scrapeRows(base)
			if err != nil {
				if scrapes > 0 {
					// The remote engine went away mid-run: render the last
					// state we saw, say so clearly, and fail — a vanished
					// endpoint is not a completed workload.
					render(last, true)
					fmt.Fprintf(os.Stderr, "ERROR: telemetry endpoint %s disappeared mid-run: %v\n", base, err)
					return 2
				}
				fmt.Printf("waiting for %s: %v\n", base, err)
				continue
			}
			scrapes++
			last = rows
			if complete {
				fmt.Println("\nremote workload complete")
				return finish()
			}
			render(rows, false)
		}
	}
}

// monitorRows converts the in-process metadata monitors to dashboard rows,
// with the engine's own bottleneck attribution as the why-slow column.
func monitorRows(dsms *pipes.DSMS) []row {
	why := map[string]flight.Diagnosis{}
	for _, d := range dsms.Bottleneck().Ops {
		why[d.Op] = d
	}
	monitors := dsms.Monitors()
	rows := make([]row, 0, len(monitors))
	for _, m := range monitors {
		vals := map[string]float64{}
		for k, v := range m.Snapshot() {
			vals[string(k)] = v
		}
		op := m.Inner().Name()
		rows = append(rows, row{op: op, vals: vals, why: why[op]})
	}
	return rows
}

// scrapeRows pulls /metrics from a remote endpoint and reconstructs the
// dashboard rows from the pipes_metadata samples, joined with the
// /bottleneck.json attribution. complete reports whether every scheduler
// task has finished.
func scrapeRows(base string) ([]row, bool, error) {
	resp, err := scrapeClient.Get(base + "/metrics")
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("status %s", resp.Status)
	}
	metrics, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, false, err
	}
	byOp := map[string]map[string]float64{}
	tasks, tasksDone := 0, 0
	for _, m := range metrics {
		switch m.Name {
		case "pipes_metadata":
			op := m.Label("op")
			if byOp[op] == nil {
				byOp[op] = map[string]float64{}
			}
			byOp[op][m.Label("kind")] = m.Value
		case "pipes_task_done":
			tasks++
			if m.Value == 1 {
				tasksDone++
			}
		}
	}
	why := scrapeBottleneck(base)
	rows := make([]row, 0, len(byOp))
	for op, vals := range byOp {
		rows = append(rows, row{op: op, vals: vals, why: why[op]})
	}
	return rows, tasks > 0 && tasksDone == tasks, nil
}

// scrapeBottleneck fetches the per-operator attribution from
// /bottleneck.json. Best-effort: an engine predating the endpoint (404)
// or a malformed document just leaves the why-slow column empty.
func scrapeBottleneck(base string) map[string]flight.Diagnosis {
	why := map[string]flight.Diagnosis{}
	resp, err := scrapeClient.Get(base + "/bottleneck.json")
	if err != nil {
		return why
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return why
	}
	var rep flight.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return why
	}
	for _, d := range rep.Ops {
		why[d.Op] = d
	}
	return why
}

// render prints the dashboard and, on the final call, a cumulative totals
// line. It returns the operators that consumed input but produced nothing.
func render(rows []row, final bool) (dead []string) {
	header := "live secondary metadata"
	if final {
		header = "final secondary metadata"
	}
	fmt.Printf("\n%s %s\n", header, time.Now().Format("15:04:05.000"))
	fmt.Printf("  %-16s %10s %10s %8s %10s %10s %8s %9s %9s  %s\n",
		"operator", "in", "out", "sel", "in/s", "out/s", "memB", "svc p50", "svc p99", "why slow")
	sort.Slice(rows, func(i, j int) bool { return rows[i].op < rows[j].op })
	var totIn, totOut, totMem float64
	var slow []row
	for _, r := range rows {
		s := r.vals
		fmt.Printf("  %-16s %10.0f %10.0f %8.3f %10.0f %10.0f %8.0f %9s %9s  %s\n",
			r.op,
			s[string(metadata.InputCount)], s[string(metadata.OutputCount)], s[string(metadata.Selectivity)],
			s[string(metadata.InputRate)], s[string(metadata.OutputRate)], s[string(metadata.MemoryUsage)],
			ns(s[string(metadata.ServiceTimeP50)]), ns(s[string(metadata.ServiceTimeP99)]),
			whyCell(r.why))
		totIn += s[string(metadata.InputCount)]
		totOut += s[string(metadata.OutputCount)]
		totMem += s[string(metadata.MemoryUsage)]
		if s[string(metadata.InputCount)] > 0 && s[string(metadata.OutputCount)] == 0 {
			dead = append(dead, r.op)
		}
		if r.why.Verdict != "" && r.why.Verdict != flight.VerdictOK {
			slow = append(slow, r)
		}
	}
	if final {
		fmt.Printf("  %-16s %10.0f %10.0f %8s %10s %10s %8.0f\n",
			"TOTAL", totIn, totOut, "", "", "", totMem)
		for _, r := range slow {
			fmt.Printf("  why slow: %s: %s\n", r.op, r.why.Reason)
		}
	}
	if !final {
		return nil
	}
	return dead
}

// whyCell renders the bottleneck verdict column ("-" when the attribution
// has nothing to say about the operator).
func whyCell(d flight.Diagnosis) string {
	if d.Verdict == "" || d.Verdict == flight.VerdictOK {
		return "-"
	}
	return string(d.Verdict)
}

// ns formats a nanosecond quantity compactly ("-" when absent).
func ns(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1e6:
		return fmt.Sprintf("%.1fms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fµs", v/1e3)
	default:
		return fmt.Sprintf("%.0fns", v)
	}
}

// deadExit reports dead operators and picks the process exit code: any
// operator with input but zero output means a silently-dead stage.
func deadExit(dead []string) int {
	if len(dead) == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "ERROR: operators consumed input but produced no output: %s\n",
		strings.Join(dead, ", "))
	return 1
}
