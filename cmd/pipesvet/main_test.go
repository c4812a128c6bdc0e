package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestTextEndToEnd builds pipesvet and runs it in its default text mode
// over the fixture module: the run exits 1 and prints one
// `file:line:col: message` line per finding — every analyzer's seeded
// violation once, plus the one unknown-analyzer directive — in the same
// order as the -json report.
func TestTextEndToEnd(t *testing.T) {
	bin, mod := setup(t)
	out := runFixture(t, bin, mod)
	report := parseReport(t, runFixture(t, bin, mod, "-json"))
	checkSuite(t, report.Diagnostics)

	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if len(lines) != len(report.Diagnostics) {
		t.Fatalf("text mode printed %d lines, -json reported %d findings\noutput:\n%s", len(lines), len(report.Diagnostics), out)
	}
	lineRE := regexp.MustCompile(`^([^:]+):(\d+):(\d+): (.+)$`)
	for i, line := range lines {
		m := lineRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %q is not file:line:col: message", line)
			continue
		}
		d := report.Diagnostics[i]
		if got, want := m[1]+":"+m[2]+": "+m[4], fmt.Sprintf("%s:%d: %s", d.File, d.Line, d.Message); got != want {
			t.Errorf("text line %d = %q, want the -json finding %q", i, got, want)
		}
		if m[3] == "0" {
			t.Errorf("line %q has no column", line)
		}
	}
}

// setup builds the pipesvet binary and writes the fixture module,
// returning both paths.
func setup(t *testing.T) (bin, mod string) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	tmp := t.TempDir()
	bin = filepath.Join(tmp, "pipesvet")
	build := exec.Command("go", "build", "-o", bin, "pipes/cmd/pipesvet")
	build.Env = append(os.Environ(), "GOPROXY=off", "GOWORK=off")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pipesvet: %v\n%s", err, out)
	}
	mod = filepath.Join(tmp, "vetfixture")
	writeFixtureModule(t, mod)
	return bin, mod
}

// runFixture runs pipesvet over the whole fixture module and returns its
// stdout, requiring exit status 1: findings, not a driver error.
func runFixture(t *testing.T, bin, mod string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, append(args, "./...")...)
	cmd.Dir = mod
	out, err := cmd.Output()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("pipesvet %v: want exit status 1 (findings), got err=%v\nstdout:\n%s", args, err, out)
	}
	return out
}

func parseReport(t *testing.T, out []byte) jsonReport {
	t.Helper()
	var report jsonReport
	if err := json.Unmarshal(out, &report); err != nil {
		t.Fatalf("parsing -json report: %v\n%s", err, out)
	}
	return report
}

// checkSuite asserts the full-suite findings over the fixture module:
// each analyzer of the suite fires exactly once on its seeded violation,
// the misspelt allow directive is reported once, and the nested module
// contributes nothing.
func checkSuite(t *testing.T, diags []finding) {
	t.Helper()
	counts := map[string]int{}
	unknown := 0
	for _, d := range diags {
		if strings.HasPrefix(d.File, "nested/") {
			t.Errorf("finding in the nested module %s:%d: %s", d.File, d.Line, d.Message)
		}
		if strings.Contains(d.Message, "unknown analyzer") {
			unknown++
			continue
		}
		counts[d.Analyzer]++
	}
	for _, a := range Analyzers() {
		if counts[a.Name] != 1 {
			t.Errorf("analyzer %s fired %d times, want exactly 1", a.Name, counts[a.Name])
		}
		delete(counts, a.Name)
	}
	for name, n := range counts {
		t.Errorf("unexpected analyzer %s fired %d times", name, n)
	}
	if unknown != 1 {
		t.Errorf("got %d unknown-analyzer diagnostics, want 1", unknown)
	}
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

// Map is an operator, so a Source: it owns the values it is handed, and
// only the frame borrow applies to it.
func (m *Map) Subscribe(s any, input int) error   { return nil }
func (m *Map) Unsubscribe(s any, input int) error { return nil }
func (m *Map) Subscriptions() []any               { return nil }

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

		// app: sealedsub violation — registration after Start — and an
		// allow directive whose analyzer name is misspelt.
		"app/app.go": `package app

import "vetfixture/sched"

func Wire() {
	s := sched.New()
	s.Start()
	//pipesvet:allow frameborow typo: names no analyzer of the suite
	s.Add(1)
}
`,

		// nested: a module of its own, so ./... stops at it, as the go
		// tool does; the goroutine below must not be reported.
		"nested/go.mod": "module nested\n\ngo 1.24\n",
		"nested/ops/ops.go": `package ops

func Spawn() { go func() {}() }
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

// TestStandaloneJSON covers `pipesvet -json`: the report carries the same
// findings in the machine-readable schema, with module-relative paths,
// and counts the allow-suppressed finding.
func TestStandaloneJSON(t *testing.T) {
	bin, mod := setup(t)
	out := runFixture(t, bin, mod, "-json")
	report := parseReport(t, out)
	checkSuite(t, report.Diagnostics)
	for _, d := range report.Diagnostics {
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
	// The fixture suppresses one goroutine launch with a reasoned allow
	// directive; the aggregate must see it.
	if report.AllowSuppressed != 1 {
		t.Errorf("allowSuppressed = %d, want 1\noutput:\n%s", report.AllowSuppressed, out)
	}
}
