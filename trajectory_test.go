package pipes

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"testing"
)

// BENCH_trajectory.json is the perf record: one entry per change that
// makes or risks a performance claim, holding the raw runs the claim
// rests on, exactly as bench/run.sh printed them (its header line and its
// final JSON line), for both the parent commit and the change. Nothing in
// the file is a summary: this test computes each claim's medians,
// quartiles and pair wins from the runs and fails when they do not
// support it. An entry's own commit is the one that adds it, so it names
// only its parent.

// trajectory mirrors BENCH_trajectory.json.
type trajectory struct {
	Entries []trajectoryEntry `json:"entries"`
}

type trajectoryEntry struct {
	PR       int            `json:"pr"`
	Change   string         `json:"change"`
	Parent   string         `json:"parent"`
	Protocol benchProtocol  `json:"protocol"`
	Claims   []benchClaim   `json:"claims"`
	Sets     []benchPairSet `json:"sets"`
}

// benchProtocol is how the runs were made: the command, with the set's
// workload and seed filled in, and the settings every run shares.
type benchProtocol struct {
	Command string `json:"command"`
	Seconds int    `json:"seconds"`
	Trace   int    `json:"trace"`
	Order   string `json:"order"`
}

// benchClaim is a gain the change claims: its metric is better at the
// change on every set of its workload.
type benchClaim struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
}

// benchPairSet is one workload and seed run in pairs: Parent[i] and
// Change[i] are pair i.
type benchPairSet struct {
	Workload string     `json:"workload"`
	Seed     int        `json:"seed"`
	Parent   []benchRun `json:"parent"`
	Change   []benchRun `json:"change"`
}

type benchRun struct {
	Header string      `json:"header"`
	Result benchResult `json:"result"`
}

// benchResult is the benchmark's final JSON line.
type benchResult struct {
	Attempted int64                  `json:"attempted"`
	Correct   bool                   `json:"correct"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]benchMetric `json:"metrics"`
}

type benchMetric struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// benchSpec is what the record is checked against in BENCHMARK.json.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchSpecMetric `json:"end_to_end"`
	PerLayer []benchSpecMetric `json:"per_layer"`
}

type benchSpecMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// decodeStrict decodes raw into v, refusing fields v does not declare.
func decodeStrict(raw []byte, v any) error {
	d := json.NewDecoder(bytes.NewReader(raw))
	d.DisallowUnknownFields()
	return d.Decode(v)
}

func loadTrajectory(t *testing.T) (trajectory, benchSpec) {
	t.Helper()
	var traj trajectory
	var spec benchSpec
	raw, err := os.ReadFile("BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeStrict(raw, &traj); err != nil {
		t.Fatalf("BENCH_trajectory.json: %v", err)
	}
	raw, err = os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return traj, spec
}

var (
	commitHash = regexp.MustCompile(`^[0-9a-f]{40}$`)
	headerRun  = regexp.MustCompile(`^# bench nproc=\d+ GOMAXPROCS=\d+ go\S+ load=\S+ \S+ \S+ seed=(\d+) seconds=(\d+) trace=(true|false) `)
)

// claimSummary is what a claim is judged on, for one set.
type claimSummary struct {
	parent, change [3]float64 // q1, median, q3
	wins, pairs    int
}

func (s claimSummary) String() string {
	return fmt.Sprintf("parent %.4g [%.4g, %.4g], change %.4g [%.4g, %.4g], better in %d/%d pairs",
		s.parent[1], s.parent[0], s.parent[2], s.change[1], s.change[0], s.change[2], s.wins, s.pairs)
}

// quartiles returns q1, the median and q3 of vs, interpolated linearly
// between the order statistics.
func quartiles(vs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(vs))
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// summarize computes a claim's summary over one set: each side's
// quartiles and the pairs in which the change reads better (a tie counts
// for neither side).
func summarize(set benchPairSet, metric string, lower bool) claimSummary {
	var p, c []float64
	s := claimSummary{pairs: len(set.Parent)}
	for i := range set.Parent {
		pv, cv := set.Parent[i].Result.Metrics[metric].Value, set.Change[i].Result.Metrics[metric].Value
		p, c = append(p, pv), append(c, cv)
		if (lower && cv < pv) || (!lower && cv > pv) {
			s.wins++
		}
	}
	s.parent, s.change = quartiles(p), quartiles(c)
	return s
}

// supports reports whether a summary supports a claim: the change reads
// better in at least nine pairs in ten, and its median beats the parent's
// by more than the distance between the parent's quartiles.
func (s claimSummary) supports(lower bool) bool {
	gain := s.parent[1] - s.change[1]
	if !lower {
		gain = -gain
	}
	return s.wins*10 >= 9*s.pairs && gain > s.parent[2]-s.parent[0]
}

// checkTrajectory validates the record against BENCHMARK.json and
// judges every claim; it returns each claim's summaries, by set.
func checkTrajectory(traj trajectory, spec benchSpec) (map[string]claimSummary, error) {
	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	metrics := map[string]benchSpecMetric{}
	for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
		metrics[m.Name] = m
	}
	if len(traj.Entries) == 0 {
		return nil, fmt.Errorf("no entries")
	}
	summaries := map[string]claimSummary{}
	lastPR := 0
	for _, e := range traj.Entries {
		if e.PR <= lastPR {
			return nil, fmt.Errorf("entry for PR %d follows PR %d: PR numbers must increase", e.PR, lastPR)
		}
		lastPR = e.PR
		where := fmt.Sprintf("PR %d", e.PR)
		if e.Change == "" || !commitHash.MatchString(e.Parent) {
			return nil, fmt.Errorf("%s: want the change described and its parent's full commit hash, got %q and %q", where, e.Change, e.Parent)
		}
		if p := e.Protocol; p.Command == "" || p.Order == "" || p.Seconds <= 0 || (p.Trace != 0 && p.Trace != 1) {
			return nil, fmt.Errorf("%s: incomplete protocol %+v", where, p)
		}
		if len(e.Sets) == 0 {
			return nil, fmt.Errorf("%s: no runs", where)
		}
		for _, set := range e.Sets {
			where := fmt.Sprintf("PR %d, %s seed %d", e.PR, set.Workload, set.Seed)
			if !workloads[set.Workload] {
				return nil, fmt.Errorf("%s: workload not in BENCHMARK.json", where)
			}
			if len(set.Parent) == 0 || len(set.Parent) != len(set.Change) {
				return nil, fmt.Errorf("%s: %d parent and %d change runs, want pairs", where, len(set.Parent), len(set.Change))
			}
			for _, side := range []struct {
				name string
				runs []benchRun
			}{{"parent", set.Parent}, {"change", set.Change}} {
				for i, r := range side.runs {
					where := fmt.Sprintf("%s, %s run %d", where, side.name, i+1)
					h := headerRun.FindStringSubmatch(r.Header)
					if h == nil {
						return nil, fmt.Errorf("%s: %q is not the benchmark's header line", where, r.Header)
					}
					if h[1] != strconv.Itoa(set.Seed) || h[2] != strconv.Itoa(e.Protocol.Seconds) || (h[3] == "true") != (e.Protocol.Trace == 1) {
						return nil, fmt.Errorf("%s: header %q does not match the set's seed and the protocol", where, r.Header)
					}
					if !r.Result.Correct || r.Result.Failed != 0 || r.Result.Attempted <= 0 {
						return nil, fmt.Errorf("%s: correct=%v with %d of %d failed, want a correct run with none failed",
							where, r.Result.Correct, r.Result.Failed, r.Result.Attempted)
					}
					if len(r.Result.Metrics) == 0 {
						return nil, fmt.Errorf("%s: no metrics", where)
					}
					for name, m := range r.Result.Metrics {
						spec, ok := metrics[name]
						if !ok {
							return nil, fmt.Errorf("%s: cell %s is not in BENCHMARK.json", where, name)
						}
						if m.Unit != spec.Unit {
							return nil, fmt.Errorf("%s: cell %s is in %q, BENCHMARK.json says %q", where, name, m.Unit, spec.Unit)
						}
					}
				}
			}
		}
		if len(e.Claims) == 0 {
			return nil, fmt.Errorf("%s: no claim; an entry records a claim's runs", where)
		}
		for _, c := range e.Claims {
			m, ok := metrics[c.Metric]
			if !ok {
				return nil, fmt.Errorf("%s: claimed cell %s is not in BENCHMARK.json", where, c.Metric)
			}
			lower := m.Better == "lower"
			judged := 0
			for _, set := range e.Sets {
				if set.Workload != c.Workload {
					continue
				}
				for _, r := range append(slices.Clone(set.Parent), set.Change...) {
					if _, ok := r.Result.Metrics[c.Metric]; !ok {
						return nil, fmt.Errorf("%s: a run of %s seed %d does not report the claimed %s", where, set.Workload, set.Seed, c.Metric)
					}
				}
				s := summarize(set, c.Metric, lower)
				key := fmt.Sprintf("PR %d %s.%s seed %d", e.PR, c.Workload, c.Metric, set.Seed)
				if !s.supports(lower) {
					return nil, fmt.Errorf("%s: the runs do not support the claim: %v", key, s)
				}
				summaries[key] = s
				judged++
			}
			if judged == 0 {
				return nil, fmt.Errorf("%s: no runs of %s for the claim on %s", where, c.Workload, c.Metric)
			}
		}
	}
	return summaries, nil
}

// The perf record is well formed, names only what BENCHMARK.json
// defines, holds only correct runs, and supports every claim it states.
func TestBenchTrajectory(t *testing.T) {
	traj, spec := loadTrajectory(t)
	summaries, err := checkTrajectory(traj, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range slices.Sorted(maps.Keys(summaries)) {
		t.Logf("%s: %v", k, summaries[k])
	}
}

// The record's check refuses an entry out of order, a failed run, a cell
// BENCHMARK.json does not define, and a claim the runs do not support.
func TestBenchTrajectoryRefuses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(tr *trajectory)
	}{
		{"PR numbers that do not increase", func(tr *trajectory) {
			tr.Entries = append(tr.Entries, tr.Entries[len(tr.Entries)-1])
		}},
		{"a failed run", func(tr *trajectory) {
			tr.Entries[0].Sets[0].Change[0].Result.Failed = 1
		}},
		{"an incorrect run", func(tr *trajectory) {
			tr.Entries[0].Sets[0].Parent[0].Result.Correct = false
		}},
		{"a cell missing from BENCHMARK.json", func(tr *trajectory) {
			tr.Entries[0].Sets[0].Change[0].Result.Metrics["allocs_per_row"] = benchMetric{Unit: "count", Value: 1}
		}},
		{"a header of another seed", func(tr *trajectory) {
			tr.Entries[0].Sets[0].Seed++
		}},
		{"a claim the runs do not support", func(tr *trajectory) {
			for i := range tr.Entries[0].Sets {
				set := &tr.Entries[0].Sets[i]
				set.Parent, set.Change = set.Change, set.Parent
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			traj, spec := loadTrajectory(t)
			tc.spoil(&traj)
			if _, err := checkTrajectory(traj, spec); err == nil {
				t.Fatal("the record's check accepted it")
			} else {
				t.Log(err)
			}
		})
	}
}
