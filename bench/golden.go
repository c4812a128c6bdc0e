package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenSeed1 holds the output checksums of every workload at seed 1,
// full size. Any other seed is checked against the in-run reference only.
//
//go:embed testdata/golden_seed1.json
var goldenSeed1 []byte

func hexSums(sums map[string]uint64) map[string]string {
	out := make(map[string]string, len(sums))
	for name, v := range sums {
		out[name] = fmt.Sprintf("%016x", v)
	}
	return out
}

// goldenSums returns the committed checksums of a workload.
func goldenSums(workload string) (map[string]string, error) {
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenSeed1, &golden); err != nil {
		return nil, fmt.Errorf("testdata/golden_seed1.json: %w", err)
	}
	return golden[workload], nil
}

// checkGolden compares a seed-1 run's checksums with the committed ones
// and returns the number that differ, counting a checksum only one side
// has.
func checkGolden(cfg config, res *result) int64 {
	if cfg.seed != 1 {
		return 0
	}
	golden, err := goldenSums(res.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var bad int64
	sums := hexSums(res.sums)
	for name, want := range golden {
		if got, ok := sums[name]; !ok || got != want {
			fmt.Fprintf(os.Stderr, "bench: %s checksum %s = %q, golden %s\n", res.workload, name, got, want)
			bad++
		}
	}
	for name, got := range sums {
		if _, ok := golden[name]; !ok {
			fmt.Fprintf(os.Stderr, "bench: %s checksum %s = %s is not in the golden file\n", res.workload, name, got)
			bad++
		}
	}
	return bad
}
