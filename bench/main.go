// Command bench is the repository's benchmark: four workloads, each
// checked against a plain-Go reference, thirteen numbers a user of the
// engine would see and a ladder of per-layer costs measured from outside
// the engine. README.md in this directory defines every metric.
//
//	go run . -workload chain_replay -seed 1 -seconds 20 -trace 0
//
// prints a header, every metric by name with its unit and, as the last
// line, one JSON object {correct, attempted, failed, metrics}. Without
// -workload all four run in turn. -trace 1 is the traced run: per-layer
// metrics and a Chrome trace under -out. -selfcheck N compares two
// interleaved sets of N runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool // 1/100 size, for the test
	outDir   string
	ckptRoot string // directory checkpoint stores are created in (-tmp)
}

// budget is the time the timed phases of one run share.
func (c config) budget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// work is the part of the budget the workload's own phases share: all of
// it on an untraced run, half on a traced one, where the ladder and the
// layer probes take the other half.
func (c config) work() time.Duration {
	if c.trace {
		return c.budget() / 2
	}
	return c.budget()
}

// scale shrinks a size under -smoke.
func (c config) scale(n int) int {
	if c.smoke {
		return max(n/100, 64)
	}
	return n
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name string
	why  string // one line; BENCHMARK.json carries it
	run  func(config, *tracer) (*result, error)
}

var workloads = []workload{
	{"chain_replay",
		"hand-wired filter/map chain, batch and scalar lane: pubsub, ops and the scheduler boundary do all the work; cql, optimizer, service and ft do none",
		runChainReplay},
	{"cql_multiquery",
		"8 overlapping CQL queries through the facade: tuple maps, expression evaluation, group-by/join and metadata dominate; the transfer lane is a small share",
		runCQLMultiquery},
	{"service_live",
		"open loop at a fixed rate through the HTTP control plane: the only workload with admission, result buffers, JSON/SSE and net/http on the path",
		runServiceLive},
	{"checkpoint_recover",
		"count-triggered delta checkpoints of a large state, then recovery from a chain: barriers, snapshot handles, delta codec, FileStore and archive replay",
		runCheckpointRecover},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median, so one cold first set-up does not decide it.
const setupRepeats = 3

// result collects what one run of one workload reports.
type result struct {
	workload          string
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	sums              map[string]uint64 // output checksums; repeat exactly for a seed
	setups            []float64
	repeats           int
}

func newResult(cfg config) *result {
	r := &result{
		workload: cfg.workload,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		sums:     map[string]uint64{},
		repeats:  setupRepeats,
	}
	if cfg.smoke {
		r.repeats = 1
	}
	return r
}

// setup runs the workload's set-up (input generation from the seed,
// reference computation, graph build, one checked warm-up pass) several
// times and records setup_s as the median duration. discard, when
// non-nil, releases off the clock what a repeat built before the next one
// starts; the last repeat's state is the one the timed phases use.
func (r *result) setup(fn, discard func()) {
	for i := 0; i < r.repeats; i++ {
		if i > 0 && discard != nil {
			discard()
		}
		runtime.GC()
		t0 := time.Now()
		fn()
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	r.e2e["setup_s"] = median(r.setups)
}

// count adds operations attempted and failed.
func (r *result) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// primary derives the per-element metrics from the passes of the
// workload's primary phase: the time from its undisturbed parts, counts
// as medians.
func (r *result) primary(passes []sample) {
	r.layer[r.workload+".throughput_eps"] = undisturbed(passes).eps()
	r.e2e["allocs_per_elem"] = medianOf(passes, sample.allocsPerElem)
	r.e2e["bytes_per_elem"] = medianOf(passes, sample.bytesPerElem)
}

func (r *result) checksum(name string, v uint64) { r.sums[name] = v }

// contractMetrics is the "metrics" object of the final JSON line: every
// end-to-end metric on an untraced run, every per-layer metric on a
// traced one (0 where the workload leaves a layer idle). A missing or
// zero end-to-end metric, or a name outside the tables, is an error: the
// tables, BENCHMARK.json and the code cannot drift.
func (r *result) contractMetrics(cfg config) (map[string]any, error) {
	metrics := map[string]any{}
	for _, d := range endToEnd {
		v, ok := r.e2e[d.name]
		if !ok || v == 0 {
			return nil, fmt.Errorf("%s: end-to-end metric %s not measured", r.workload, d.name)
		}
		if !cfg.trace {
			metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		}
	}
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
		if cfg.trace {
			metrics[d.name] = map[string]any{"value": r.layer[d.name], "unit": d.unit}
		}
	}
	for name := range r.layer {
		if !known[name] {
			return nil, fmt.Errorf("%s: metric %s is not in the table", r.workload, name)
		}
	}
	return metrics, nil
}

// report prints every metric the run measured by name and, as the last
// line, the JSON object the builder's contract reads.
func (r *result) report(cfg config) error {
	metrics, err := r.contractMetrics(cfg)
	if err != nil {
		return err
	}
	for _, d := range endToEnd {
		fmt.Printf("%-19s %-48s %14.6g %s\n", r.workload, d.name, r.e2e[d.name], d.unit)
	}
	for _, d := range perLayer {
		if v, ok := r.layer[d.name]; ok {
			fmt.Printf("%-19s %-48s %14.6g %s\n", r.workload, d.name, v, d.unit)
		}
	}
	names := make([]string, 0, len(r.sums))
	for name := range r.sums {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-19s checksum %-39s %016x\n", r.workload, name, r.sums[name])
	}
	fmt.Printf("%-19s attempted %d failed %d\n", r.workload, r.attempted, r.failed)
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOne runs one workload under cfg and reports it.
func runOne(cfg config) (*result, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano()))
	}
	res, err := w.run(cfg, tr)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := ladder(cfg, tr, res); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("%-19s spans %d written to %s\n", cfg.workload, len(tr.spans), path)
	}
	if res.attempted < 1 {
		return nil, fmt.Errorf("%s: nothing attempted", cfg.workload)
	}
	if !cfg.smoke {
		res.failed += checkGolden(cfg, res)
	}
	return res, nil
}

// header prints the host facts every run is read against.
func header(cfg config) {
	load := "unknown"
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Join(strings.Fields(string(raw))[:3], " ")
	}
	fmt.Printf("# bench nproc=%d GOMAXPROCS=%d %s load=%s seed=%d seconds=%g trace=%v tmp=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), load,
		cfg.seed, cfg.seconds, cfg.trace, cfg.ckptRoot)
}

// hostSetup pins GOMAXPROCS to min(nproc, 2) — the engine itself always
// runs one worker — and refuses an environment that asks for more
// threads than the host has processors.
func hostSetup() error {
	nproc := runtime.NumCPU()
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		if runtime.GOMAXPROCS(0) > nproc {
			return fmt.Errorf("GOMAXPROCS=%s exceeds nproc=%d: the benchmark would time-share its own threads; unset it or lower it", env, nproc)
		}
		return nil
	}
	runtime.GOMAXPROCS(min(nproc, 2))
	return nil
}

// defaultTmp picks where checkpoint stores live unless -tmp says so:
// memory-backed when the host offers it, so the VM's disk is not what is
// measured.
func defaultTmp() string {
	if f, err := os.CreateTemp("/dev/shm", "pipes-bench-probe-*"); err == nil {
		f.Close()
		os.Remove(f.Name())
		return "/dev/shm"
	}
	return os.TempDir()
}

// defaultOut is bench/out from the repository root (where the contract's
// command runs) and out from inside the bench directory.
func defaultOut() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var traceFlag, selfcheck int
	var writeGolden bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four in turn)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "time the timed phases of a run share")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics and spans")
	flag.BoolVar(&cfg.smoke, "smoke", false, "1/100 size")
	flag.StringVar(&cfg.outDir, "out", defaultOut(), "directory for span files")
	flag.StringVar(&cfg.ckptRoot, "tmp", "", "directory checkpoint stores are created (and removed) in (default /dev/shm when writable, else the system's)")
	flag.IntVar(&selfcheck, "selfcheck", 0, "run two interleaved sets of N runs and compare their medians")
	flag.BoolVar(&writeGolden, "write-golden", false, "print the checksums of this run in testdata format")
	flag.BoolVar(&verbose, "v", false, "print every pass")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	flag.Parse()
	cfg.trace = traceFlag != 0
	if cfg.ckptRoot == "" {
		cfg.ckptRoot = defaultTmp() // probes /dev/shm, so only when -tmp does not say
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return code
	}
	if err := hostSetup(); err != nil {
		return fail(2, err)
	}
	if err := os.MkdirAll(cfg.ckptRoot, 0o755); err != nil {
		return fail(2, err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(2, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(2, err)
		}
		defer pprof.StopCPUProfile()
	}
	if selfcheck > 0 {
		return runSelfcheck(cfg, selfcheck)
	}
	header(cfg)
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	golden := map[string]map[string]string{}
	ok := true
	for _, name := range names {
		c := cfg
		c.workload = name
		res, err := runOne(c)
		if err == nil {
			err = res.report(c)
		}
		if err != nil {
			return fail(1, err)
		}
		ok = ok && res.failed == 0
		golden[name] = hexSums(res.sums)
	}
	if writeGolden {
		raw, _ := json.MarshalIndent(golden, "", "  ")
		fmt.Fprintln(os.Stderr, string(raw))
	}
	if !ok {
		return fail(1, fmt.Errorf("outputs differ from the reference"))
	}
	return 0
}
