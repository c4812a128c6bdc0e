package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// verbose prints every pass of every phase (-v).
var verbose bool

// sample is one timed block of a phase: a fixed amount of work (elems
// input elements) with everything a per-element metric divides.
type sample struct {
	elems   int64
	wall    time.Duration
	cpu     time.Duration // process user+sys CPU (getrusage)
	mallocs uint64        // MemStats.Mallocs delta
	bytes   uint64        // MemStats.TotalAlloc delta
	// parts are the wall times of the block's laps, in order; they add up
	// to wall. A lap is the stretch between two fixed positions in a
	// pass's input, so part k is the same work in every pass of a phase.
	// A block nobody cut has one.
	parts []time.Duration
}

// add folds another block of the same phase into s.
func (s *sample) add(o sample) {
	s.elems += o.elems
	s.wall += o.wall
	s.cpu += o.cpu
	s.mallocs += o.mallocs
	s.bytes += o.bytes
	s.parts = append(s.parts, o.parts...)
}

func (s sample) eps() float64           { return float64(s.elems) / s.wall.Seconds() }
func (s sample) nsPerElem() float64     { return float64(s.wall.Nanoseconds()) / float64(s.elems) }
func (s sample) cpuUsPerElem() float64  { return float64(s.cpu.Microseconds()) / float64(s.elems) }
func (s sample) allocsPerElem() float64 { return float64(s.mallocs) / float64(s.elems) }
func (s sample) bytesPerElem() float64  { return float64(s.bytes) / float64(s.elems) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure times fn, which processes elems input elements. The collector
// runs before the clock starts (noise rule 6) and the allocation counters
// are read outside the timed window.
func measure(elems int64, fn func()) sample {
	return measureLaps(elems, func(func()) { fn() })
}

// measureLaps is measure for a pass that is cut into parts: fn calls lap
// whenever its input reaches one of the fixed positions that end a part
// (from whichever goroutine drives the input; fn returns after the last
// such call). The end of fn ends the last part.
func measureLaps(elems int64, fn func(lap func())) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := sample{elems: elems}
	c0, t := cpuTime(), time.Now()
	lap := func() {
		t1 := time.Now()
		s.parts = append(s.parts, t1.Sub(t))
		s.wall += t1.Sub(t)
		t = t1
	}
	fn(lap)
	lap()
	s.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	if verbose && len(s.parts) > 1 {
		fmt.Printf("#   parts, ms:")
		for _, p := range s.parts {
			fmt.Printf(" %.1f", ms(p))
		}
		fmt.Println()
	}
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.bytes = m1.TotalAlloc - m0.TotalAlloc
	return s
}

// alternate runs the phases' passes in turn — one pass of each per round —
// until budget is spent, at least atLeast rounds, and returns each phase's
// samples. Every pass of a phase does identical work, so the count of
// rounds is the only thing the host's speed decides; taking turns spreads
// every phase's passes over the whole budget, so a slow spell of the host
// shorter than that does not land on one phase alone.
func alternate(budget time.Duration, atLeast int, phases ...func() sample) [][]sample {
	out := make([][]sample, len(phases))
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start) < budget; i++ {
		for p, pass := range phases {
			s := pass()
			if verbose {
				fmt.Printf("#   phase %d pass %d: %.0f ms, %.4g elem/s, %.4g allocs/elem, %.4g cpu us/elem\n",
					p, i, ms(s.wall), s.eps(), s.allocsPerElem(), s.cpuUsPerElem())
			}
			out[p] = append(out[p], s)
		}
	}
	return out
}

// repeat is alternate with a single phase.
func repeat(budget time.Duration, atLeast int, pass func() sample) []sample {
	return alternate(budget, atLeast, pass)[0]
}

// sorted returns an ordered copy of vs.
func sorted(vs []float64) []float64 {
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	return vs
}

// median of vs, 0 when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	vs = sorted(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// quantile q (0..1) of vs by nearest rank, 0 when empty.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	vs = sorted(vs)
	i := int(q*float64(len(vs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return vs[i]
}

// medianOf is the median of f over the samples.
func medianOf(ss []sample, f func(sample) float64) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = f(s)
	}
	return median(vs)
}

// undisturbed estimates what one pass of a phase takes on a host that
// leaves it alone. What a shared host adds to a time is one-sided — a
// neighbour only ever slows work down — and comes in spells shorter than a
// pass, so the estimate is made part by part: part k is the same work in
// every pass, it is read as the mean of the best quarter (at least one) of
// its readings across the passes, and the parts are summed. The result
// carries elems and wall only.
func undisturbed(passes []sample) sample {
	if len(passes) == 0 {
		return sample{}
	}
	out := sample{elems: passes[0].elems}
	for _, s := range passes {
		if len(s.parts) != len(passes[0].parts) || s.elems != out.elems {
			panic(fmt.Sprintf("bench: passes of one phase differ: %d and %d parts, %d and %d elements",
				len(passes[0].parts), len(s.parts), out.elems, s.elems))
		}
	}
	for k := range passes[0].parts {
		vs := make([]float64, len(passes))
		for i, s := range passes {
			vs[i] = float64(s.parts[k])
		}
		vs = sorted(vs)[:max(len(vs)/4, 1)]
		var sum float64
		for _, v := range vs {
			sum += v
		}
		out.wall += time.Duration(sum / float64(len(vs)))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
