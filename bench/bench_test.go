package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// benchmarkDoc mirrors BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []e2eDoc      `json:"end_to_end"`
	PerLayer   []layerDoc    `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eDoc struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// better is the direction of a metric, from its name: rates, fills,
// shares of reuse and counts of work done improve upward, every cost
// improves downward.
func better(name string) string {
	for _, suffix := range []string{"throughput_eps", "frame_fill", "shared_node_frac", "ft.rounds", "service.results"} {
		if strings.HasSuffix(name, suffix) {
			return "higher"
		}
	}
	return "lower"
}

func wantDoc() benchmarkDoc {
	doc := benchmarkDoc{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 20,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDoc{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eDoc{d.name, d.unit, better(d.name), d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDoc{d.name, d.unit, better(d.name)})
	}
	return doc
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables equal.
func TestBenchmarkJSON(t *testing.T) {
	want := wantDoc()
	if *update {
		raw, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkDoc
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json and the tables in metrics.go/main.go differ; run `go test -run TestBenchmarkJSON -update`\n got %+v\nwant %+v", got, want)
	}
	if len(want.PerLayer) > 128 || len(want.EndToEnd) > 16 || len(want.Workloads) > 8 {
		t.Fatalf("table sizes exceed the contract: %d per-layer, %d end-to-end, %d workloads",
			len(want.PerLayer), len(want.EndToEnd), len(want.Workloads))
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
}

// TestSmoke runs all four workloads and the ladder at 1/100 size, both
// untraced and traced, and checks that what each run would print as its
// result is exactly the set of names BENCHMARK.json lists — no missing,
// no extra — with nothing failed, and that the checksums it emits are
// exactly the ones the golden file names.
func TestSmoke(t *testing.T) {
	hostSetup()
	want := wantDoc()
	for _, w := range workloads {
		golden, err := goldenSums(w.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, seconds: 0.1, trace: trace, smoke: true,
				outDir: t.TempDir(), ckptRoot: t.TempDir()}
			res, err := runOne(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d failed %d", w.name, trace, res.attempted, res.failed)
			}
			// The smoke sizes have other checksums than the golden file's
			// full-size ones, but the same names.
			for name := range golden {
				if _, ok := res.sums[name]; !ok {
					t.Errorf("%s trace=%v: checksum %s of the golden file is not emitted", w.name, trace, name)
				}
			}
			for name := range res.sums {
				if _, ok := golden[name]; !ok {
					t.Errorf("%s trace=%v: checksum %s is not in the golden file", w.name, trace, name)
				}
			}
			metrics, err := res.contractMetrics(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			names := map[string]string{}
			if trace {
				for _, d := range want.PerLayer {
					names[d.Name] = d.Unit
				}
			} else {
				for _, d := range want.EndToEnd {
					names[d.Name] = d.Unit
				}
			}
			if len(metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json lists %d", w.name, trace, len(metrics), len(names))
			}
			for name, m := range metrics {
				if unit, ok := names[name]; !ok || unit != m.(map[string]any)["unit"] {
					t.Errorf("%s trace=%v: metric %s (%v) is not in BENCHMARK.json", w.name, trace, name, m)
				}
			}
		}
	}
}
