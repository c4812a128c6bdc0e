package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVettoolEndToEnd builds the pipesvet binary and runs it via
// `go vet -vettool` over a scratch module seeded with exactly one
// violation per analyzer, asserting every analyzer fires exactly once.
// This is the integration seam the unit fixtures cannot cover: the
// unitchecker protocol, suffix-based package scoping, and the CI
// invocation all go through this path.
func TestVettoolEndToEnd(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	tmp := t.TempDir()

	vettool := filepath.Join(tmp, "pipesvet")
	build := exec.Command("go", "build", "-o", vettool, "pipes/cmd/pipesvet")
	build.Env = offlineEnv()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pipesvet: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "vetfixture")
	writeFixtureModule(t, mod)

	vet := exec.Command("go", "vet", "-vettool="+vettool, "-json", "./...")
	vet.Dir = mod
	vet.Env = offlineEnv()
	out, err := vet.CombinedOutput()
	if err != nil {
		// In -json mode diagnostics do not fail the run; an error here is
		// a broken fixture or tool crash.
		t.Fatalf("go vet: %v\n%s", err, out)
	}

	counts := countDiagnostics(t, out)
	want := []string{"atomicmix", "frameborrow", "hotpathclock", "lockorder", "nogoroutine", "sealedsub", "snapshotclosure", "traceslot"}
	for _, name := range want {
		if counts[name] != 1 {
			t.Errorf("analyzer %s fired %d times, want exactly 1\noutput:\n%s",
				name, counts[name], out)
		}
	}
	for name, n := range counts {
		found := false
		for _, w := range want {
			if w == name {
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected analyzer %s fired %d times", name, n)
		}
	}
}

// offlineEnv returns the environment for child go commands with all
// network access disabled: everything the fixture needs is local.
func offlineEnv() []string {
	return append(os.Environ(), "GOPROXY=off", "GOFLAGS=-mod=mod", "GOWORK=off")
}

// countDiagnostics parses `go vet -json` output: a stream of JSON
// objects {pkg: {analyzer: [diagnostics]}} interleaved with `# pkg`
// comment lines.
func countDiagnostics(t *testing.T, out []byte) map[string]int {
	counts := map[string]int{}
	dec := json.NewDecoder(strings.NewReader(stripComments(string(out))))
	for dec.More() {
		var byPkg map[string]map[string][]struct {
			Message string `json:"message"`
		}
		if err := dec.Decode(&byPkg); err != nil {
			t.Fatalf("parsing vet -json output: %v\n%s", err, out)
		}
		for _, byAnalyzer := range byPkg {
			for name, diags := range byAnalyzer {
				counts[name] += len(diags)
			}
		}
	}
	return counts
}

func stripComments(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}

// writeFixtureModule lays out a minimal module whose package paths end
// in the suffixes each analyzer scopes to, with one seeded violation
// per analyzer and enough clean code to prove the negatives compile.
func writeFixtureModule(t *testing.T, dir string) {
	files := map[string]string{
		"go.mod": "module vetfixture\n\ngo 1.24\n",

		// temporal stub: traceslot matches Element literals and
		// NewElement calls by package-path suffix; frameborrow matches the
		// Batch type the same way.
		"temporal/temporal.go": `package temporal

type Interval struct{ Start, End int64 }

type Element struct {
	Value any
	Interval
	Trace any
}

type Batch []Element

func NewElement(value any, start, end int64) Element {
	return Element{Value: value, Interval: Interval{start, end}}
}

func Derive(value any, iv Interval, from ...Element) Element {
	e := Element{Value: value, Interval: iv}
	for _, f := range from {
		if f.Trace != nil {
			e.Trace = f.Trace
			break
		}
	}
	return e
}
`,

		// sched stub: sealedsub keys on a Scheduler type in a package
		// whose path ends in /sched; the package also carries the seeded
		// atomicmix violation (a plain read of an atomically-updated word).
		"sched/sched.go": `package sched

import "sync/atomic"

type Scheduler struct{ started bool }

func New() *Scheduler           { return &Scheduler{} }
func (s *Scheduler) Start()     { s.started = true }
func (s *Scheduler) Add(n any)  {}

var active int64

func Enter() { atomic.AddInt64(&active, 1) }

// Pending carries the seeded atomicmix violation: a plain read racing
// with the atomic increments above.
func Pending() int64 { return active }
`,

		// ops: one traceslot violation, one hotpathclock violation, one
		// nogoroutine violation — plus clean derivations proving the
		// analyzers do not over-fire.
		"ops/ops.go": `package ops

import (
	"time"

	"vetfixture/temporal"
)

type Map struct {
	out   []temporal.Element
	frame temporal.Batch
}

// ProcessBatch is the operator's one frame method and a hot root: the raw
// time.Now inside is the seeded hotpathclock violation. It also carries
// the seeded frameborrow violation — the borrowed frame's header is
// retained past the call; the spread append below it is the sanctioned
// copy, proving the negative.
func (m *Map) ProcessBatch(b temporal.Batch, _ int) {
	_ = time.Now().UnixNano()
	m.frame = b
	m.out = append(m.out, b...)
	for _, e := range b {
		// Seeded traceslot violation: fresh element, trace dropped.
		m.out = append(m.out, temporal.Element{Value: e.Value, Interval: e.Interval})
		// Clean: Derive propagates the slot.
		m.out = append(m.out, temporal.Derive(e.Value, e.Interval, e))
	}
}

// Spawn carries the seeded nogoroutine violation; the suppressed second
// launch feeds the allow-suppression count the -json report surfaces.
func (m *Map) Spawn() {
	go func() {}()
	//pipesvet:allow nogoroutine fixture: reviewed hand-off launch proving suppression is counted
	go func() {}()
}

// Window carries the seeded snapshotclosure violation: the returned
// closure reads receiver state off-barrier instead of a captured copy.
type Window struct{ q []temporal.Element }

func (w *Window) SnapshotState() (func() []temporal.Element, error) {
	return func() []temporal.Element { return w.q }, nil
}
`,

		// store: lockorder violation via lockclass directives.
		"store/store.go": `package store

import "sync"

type Cache struct {
	//pipesvet:lockclass stats
	statsMu sync.Mutex
	//pipesvet:lockclass inner
	procMu sync.Mutex
}

func (c *Cache) Bad() {
	c.statsMu.Lock()
	c.procMu.Lock()
	c.procMu.Unlock()
	c.statsMu.Unlock()
}
`,

		// app: sealedsub violation — registration after Start.
		"app/app.go": `package app

import "vetfixture/sched"

func Wire() {
	s := sched.New()
	s.Start()
	s.Add(1)
}
`,
	}
	for rel, content := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStandaloneJSON covers the direct `pipesvet -json <patterns>`
// invocation: the in-process driver must find the same seeded violations
// as the vettool path, emit them in the machine-readable schema, count
// allow-suppressed findings, and exit 1.
func TestStandaloneJSON(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	tmp := t.TempDir()

	vettool := filepath.Join(tmp, "pipesvet")
	build := exec.Command("go", "build", "-o", vettool, "pipes/cmd/pipesvet")
	build.Env = offlineEnv()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pipesvet: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "vetfixture")
	writeFixtureModule(t, mod)

	cmd := exec.Command(vettool, "-json", "./...")
	cmd.Dir = mod
	cmd.Env = offlineEnv()
	out, err := cmd.Output()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("pipesvet -json: want exit status 1 (diagnostics found), got err=%v\nstdout:\n%s", err, out)
	}

	var report struct {
		Diagnostics []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
		AllowSuppressed int `json:"allowSuppressed"`
	}
	if err := json.Unmarshal(out, &report); err != nil {
		t.Fatalf("parsing -json report: %v\n%s", err, out)
	}

	counts := map[string]int{}
	for _, d := range report.Diagnostics {
		counts[d.Analyzer]++
		if d.File == "" || filepath.IsAbs(d.File) {
			t.Errorf("diagnostic file %q: want a module-relative path", d.File)
		}
		if d.Line <= 0 {
			t.Errorf("diagnostic %s at %s: non-positive line %d", d.Analyzer, d.File, d.Line)
		}
		if d.Message == "" {
			t.Errorf("diagnostic %s at %s:%d has an empty message", d.Analyzer, d.File, d.Line)
		}
	}
	want := []string{"atomicmix", "frameborrow", "hotpathclock", "lockorder", "nogoroutine", "sealedsub", "snapshotclosure", "traceslot"}
	for _, name := range want {
		if counts[name] != 1 {
			t.Errorf("analyzer %s fired %d times in -json mode, want exactly 1\noutput:\n%s", name, counts[name], out)
		}
	}
	if len(report.Diagnostics) != len(want) {
		t.Errorf("got %d diagnostics, want %d\noutput:\n%s", len(report.Diagnostics), len(want), out)
	}
	// The fixture suppresses one goroutine launch with a reasoned allow
	// directive; the aggregate must see it.
	if report.AllowSuppressed < 1 {
		t.Errorf("allowSuppressed = %d, want >= 1\noutput:\n%s", report.AllowSuppressed, out)
	}
}
