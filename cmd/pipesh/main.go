// pipesh is an interactive PIPES session — the command-line counterpart
// of the demonstration the paper describes: register synthetic streams
// from the two demo domains, add continuous CQL queries (watching the
// optimizer share operators), inspect plans, run the engine and read the
// results, save/load plans as XML.
//
//	$ go run ./cmd/pipesh
//	pipes> stream bids nexmark 50000
//	pipes> query SELECT MAX(price) AS highest FROM bids [RANGE 10 MINUTES SLIDE 10 MINUTES]
//	pipes> explain
//	pipes> run
//
// Pipe a script via stdin for non-interactive use.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pipes"
	"pipes/internal/nexmark"
	"pipes/internal/planio"
	"pipes/internal/traffic"
)

type session struct {
	dsms    *pipes.DSMS
	emitted bool
	queries []*pipes.Query
	sinks   []*pipes.Collector
}

func newSession(cfg pipes.Config) *session {
	return &session{dsms: pipes.NewDSMS(cfg)}
}

func main() {
	checkpointDir := flag.String("checkpoint", "",
		"enable fault-tolerance checkpointing into this directory (file-backed store; see FAULT_TOLERANCE.md)")
	checkpointEvery := flag.Duration("checkpoint-interval", 200*time.Millisecond,
		"checkpoint cadence when -checkpoint is set")
	flag.Parse()
	cfg := pipes.Config{Workers: 2, MonitorQueries: true}
	if *checkpointDir != "" {
		cfg.CheckpointDir = *checkpointDir
		cfg.CheckpointInterval = *checkpointEvery
	}
	s := newSession(cfg)
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	interactive := isatty()
	if interactive {
		fmt.Println("PIPES interactive session — 'help' lists commands")
	}
	for {
		if interactive {
			fmt.Print("pipes> ")
		}
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch strings.ToLower(cmd) {
		case "help":
			help()
		case "quit", "exit":
			return
		case "stream":
			s.cmdStream(rest)
		case "query":
			s.cmdQuery(rest)
		case "explain":
			fmt.Print(s.dsms.Explain())
		case "queries":
			for i, q := range s.queries {
				if q == nil {
					fmt.Printf("q%d (dropped)\n", i)
					continue
				}
				fmt.Printf("q%d [new=%d shared=%d cost=%.0f] %s\n", i,
					q.Instance.NewNodes, q.Instance.SharedNodes, q.Instance.Cost, q.Text)
			}
			fmt.Printf("physical operators: %d\n", s.dsms.Optimizer.OperatorCount())
		case "drop":
			s.cmdDrop(rest)
		case "run":
			s.cmdRun()
		case "save":
			s.cmdSave(rest)
		case "load":
			s.cmdLoad(rest)
		case "monitor":
			s.cmdMonitor()
		default:
			fmt.Printf("unknown command %q — try 'help'\n", cmd)
		}
	}
}

func help() {
	fmt.Print(`commands:
  stream <name> traffic|nexmark [events]   register a synthetic demo stream
  query <CQL>                              register a continuous query
  queries                                  list queries and sharing stats
  drop <n>                                 deregister query n (operators GC'd)
  explain                                  show the live graph and plans
  run                                      drive all streams to completion
  monitor                                  show operator metadata snapshot
  save <n> <file.xml>                      save query n's plan as XML
  load <file.xml>                          instantiate a saved plan
  quit
`)
}

func (s *session) cmdStream(rest string) {
	parts := strings.Fields(rest)
	if len(parts) < 2 {
		fmt.Println("usage: stream <name> traffic|nexmark [events]")
		return
	}
	name, kind := parts[0], parts[1]
	n := 50_000
	if len(parts) > 2 {
		if v, err := strconv.Atoi(parts[2]); err == nil && v > 0 {
			n = v
		}
	}
	switch kind {
	case "traffic":
		gen := traffic.NewGenerator(traffic.Config{Seed: 1, MaxReadings: n})
		s.dsms.RegisterStream(name, gen.Source(name), 1000)
	case "nexmark":
		gen := nexmark.NewGenerator(nexmark.Config{Seed: 1, MaxEvents: n}, nil)
		s.dsms.RegisterStream(name, gen.BidSource(name), 1000)
	default:
		fmt.Printf("unknown stream kind %q (traffic|nexmark)\n", kind)
		return
	}
	fmt.Printf("registered %s stream %q (%d events)\n", kind, name, n)
}

func (s *session) cmdQuery(text string) {
	if text == "" {
		fmt.Println("usage: query <CQL>")
		return
	}
	q, err := s.dsms.RegisterQuery(text)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	col := pipes.NewCollector(fmt.Sprintf("q%d", len(s.queries)), 1)
	if err := q.Subscribe(col); err != nil {
		fmt.Println("error:", err)
		return
	}
	s.queries = append(s.queries, q)
	s.sinks = append(s.sinks, col)
	fmt.Printf("q%d registered: %d new operators, %d shared, cost %.0f\n",
		len(s.queries)-1, q.Instance.NewNodes, q.Instance.SharedNodes, q.Instance.Cost)
}

func (s *session) cmdDrop(rest string) {
	idx, err := strconv.Atoi(rest)
	if err != nil || idx < 0 || idx >= len(s.queries) || s.queries[idx] == nil {
		fmt.Println("usage: drop <query index>")
		return
	}
	if err := s.dsms.DeregisterQuery(s.queries[idx]); err != nil {
		fmt.Println("error:", err)
		return
	}
	s.queries[idx] = nil
	fmt.Printf("q%d dropped; %d physical operators remain\n", idx, s.dsms.Optimizer.OperatorCount())
}

func (s *session) cmdRun() {
	if s.emitted {
		fmt.Println("already ran — restart the session to run again")
		return
	}
	s.emitted = true
	// With -checkpoint set, say exactly what the store gave us before the
	// run: the restored checkpoint ID, or an explicit cold start. A store
	// that holds sealed checkpoints but cannot reconstruct any of them (a
	// corrupt manifest or a torn payload) is an error, not a silent cold
	// start.
	if s.dsms.Checkpoints != nil {
		switch cp, err := s.dsms.RecoverLatest(); {
		case err == nil:
			fmt.Printf("checkpoint: restored state from checkpoint %d\n", cp.ID)
		case errors.Is(err, pipes.ErrNoCheckpoint):
			fmt.Println("checkpoint: no sealed checkpoint found — cold start")
		default:
			fmt.Fprintf(os.Stderr, "checkpoint: recovery failed: %v\n", err)
			os.Exit(1)
		}
	}
	s.dsms.Start()
	s.dsms.Wait()
	if m := s.dsms.Checkpoints; m != nil {
		fmt.Printf("checkpoints: %d sealed, last id %d\n", m.Completed(), m.LastCheckpointID())
	}
	for i, col := range s.sinks {
		if s.queries[i] == nil {
			continue
		}
		col.Wait()
		elems := col.Elements()
		fmt.Printf("q%d: %d result elements", i, len(elems))
		if len(elems) > 0 {
			last := elems[len(elems)-1]
			fmt.Printf("; last: %v during %s", last.Value, last.Interval)
		}
		fmt.Println()
	}
}

func (s *session) cmdSave(rest string) {
	parts := strings.Fields(rest)
	if len(parts) != 2 {
		fmt.Println("usage: save <query index> <file.xml>")
		return
	}
	idx, err := strconv.Atoi(parts[0])
	if err != nil || idx < 0 || idx >= len(s.queries) || s.queries[idx] == nil {
		fmt.Println("bad query index")
		return
	}
	data, err := planio.Encode(s.queries[idx].Instance.Plan)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := os.WriteFile(parts[1], data, 0o644); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("saved q%d to %s (%d bytes)\n", idx, parts[1], len(data))
}

func (s *session) cmdLoad(file string) {
	if file == "" {
		fmt.Println("usage: load <file.xml>")
		return
	}
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	plan, err := planio.Decode(data)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	q, err := s.dsms.RegisterPlan(plan)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	col := pipes.NewCollector(fmt.Sprintf("q%d", len(s.queries)), 1)
	q.Subscribe(col)
	s.queries = append(s.queries, q)
	s.sinks = append(s.sinks, col)
	fmt.Printf("q%d loaded from %s: %d new, %d shared\n",
		len(s.queries)-1, file, q.Instance.NewNodes, q.Instance.SharedNodes)
}

func (s *session) cmdMonitor() {
	for _, m := range s.dsms.Monitors() {
		snap := m.Snapshot()
		fmt.Printf("%-14s in=%-8.0f out=%-8.0f sel=%.3f mem=%.0f\n",
			m.Inner().Name(), snap["input_count"], snap["output_count"],
			snap["selectivity"], snap["memory_usage"])
	}
}

func isatty() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
