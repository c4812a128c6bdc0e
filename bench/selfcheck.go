package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runSelfcheck runs two interleaved sets of n full runs of this same
// binary — run i of either set uses seed+i — and prints, per end-to-end
// cell, both medians and quartiles, their relative difference and the
// cell's bound; the demoted cells follow, without a bound, so that what
// the host does to them is on record. A cell whose medians differ by more than half its bound,
// or whose 2n runs spread wider than the bound (the distance between their
// quartiles as a share of their median, which is what the benchmark
// driver holds ten runs to; set-up time excepted), is flagged: it has to be
// reshaped (longer phase, more samples) or demoted before anyone gates on
// it.
// It returns the process exit code.
func runSelfcheck(cfg config, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	header(cfg)
	type cell struct{ workload, metric string }
	sets := [2]map[cell][]float64{{}, {}}
	sums := map[string]string{} // workload/seed → checksum lines, which must repeat exactly
	flagged := 0
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				seed := cfg.seed + int64(i)
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", fmt.Sprint(cfg.seconds), "-out", cfg.outDir, "-tmp", cfg.ckptRoot)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck run of %s failed: %v\n", w.name, err)
					return 1
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var doc struct {
					Metrics map[string]struct {
						Value float64 `json:"value"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: last line of %s is not the result: %v\n", w.name, err)
					return 1
				}
				for name, m := range doc.Metrics {
					c := cell{w.name, name}
					sets[set][c] = append(sets[set][c], m.Value)
				}
				var checks []string
				for _, l := range lines {
					// A demoted cell is printed as "<workload> <workload>.<metric> <value> <unit>".
					if f := strings.Fields(l); len(f) == 4 && strings.HasPrefix(f[1], w.name+".") {
						if v, err := strconv.ParseFloat(f[2], 64); err == nil {
							c := cell{w.name, f[1]}
							sets[set][c] = append(sets[set][c], v)
						}
					}
					for _, mark := range exactLines {
						if strings.Contains(l, mark) {
							checks = append(checks, l)
						}
					}
				}
				key := fmt.Sprintf("%s/%d", w.name, seed)
				got := strings.Join(checks, "\n")
				if prev, ok := sums[key]; ok && prev != got {
					fmt.Printf("CHECKSUMS DIFFER %s:\n%s\n---\n%s\n", key, prev, got)
					flagged++
				}
				sums[key] = got
				fmt.Printf("# set %d run %d %s done\n", set+1, i+1, w.name)
			}
		}
	}
	fmt.Printf("%-19s %-48s %12s %25s %12s %25s %7s %7s %6s\n",
		"workload", "metric", "median 1", "quartiles 1", "median 2", "quartiles 2", "diff", "spread", "bound")
	row := func(c cell, bound float64) {
		a, b := sets[0][c], sets[1][c]
		if len(a) == 0 || len(b) == 0 {
			return
		}
		ma, mb := median(a), median(b)
		diff := (mb - ma) / ma
		both := append(append([]float64(nil), a...), b...)
		spread := iqr(both) / median(both)
		flag, limit := "", "-"
		if bound > 0 {
			limit = fmt.Sprintf("%.0f%%", 100*bound)
			if math.Abs(diff) > bound/2 {
				flag += " DIFF>bound/2"
			}
			if spread > bound && c.metric != "setup_s" { // the driver does not hold set-up's spread to its bound either
				flag += " SPREAD>bound"
			}
			if flag != "" {
				flagged++
			}
		}
		fmt.Printf("%-19s %-48s %12.6g %25s %12.6g %25s %+6.1f%% %6.1f%% %6s%s\n",
			c.workload, c.metric, ma, quartiles(a), mb, quartiles(b), 100*diff, 100*spread, limit, flag)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			row(cell{w.name, d.name}, d.bound)
		}
	}
	for _, d := range perLayer {
		if w, _, ok := strings.Cut(d.name, "."); ok && findWorkload(w) != nil {
			row(cell{w, d.name}, 0)
		}
	}
	if flagged > 0 {
		fmt.Printf("%d cells flagged\n", flagged)
		return 1
	}
	fmt.Println("every cell within its bound; every checksum repeats")
	return 0
}

// exactLines mark the printed lines that must repeat exactly between two
// runs of a workload on one seed: the output checksums, and the counts no
// host can move.
var exactLines = []string{" checksum ", "ckpt_written_bytes_per_round ", "ft.rounds "}

// quartile returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method).
func quartile(vs []float64) (q1, q3 float64) {
	s := sorted(vs)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

func iqr(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartile(vs)
	return q3 - q1
}

func quartiles(vs []float64) string {
	if len(vs) < 2 {
		return "-"
	}
	q1, q3 := quartile(vs)
	return fmt.Sprintf("[%.5g, %.5g]", q1, q3)
}
