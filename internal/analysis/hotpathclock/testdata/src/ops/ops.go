// Package ops exercises the hot-path clock contract: ProcessBatch/
// TransferBatch/Drain (and the per-element edge adapter Transfer, and an
// ordered operator's per-element body processOne) and everything
// statically reachable from them must not read the wall clock outside the
// sanctioned patterns.
package ops

import "time"

// strideEvery is the sampling stride (name-matched by the guard
// exemption, as in internal/telemetry/flight).
const strideEvery = 16

type op struct {
	n int
}

func (o *op) ProcessBatch(xs []int) {
	_ = time.Now() // want `raw time.Now on the hot path`
	o.helper()
}

func (o *op) helper() {
	_ = time.Since(time.Time{}) // want `raw time.Since on the hot path`
}

func (o *op) Drain(max int) int {
	o.n++
	if o.n%strideEvery == 0 {
		// Amortised under the stride: sanctioned.
		_ = time.Now()
	}
	//pipesvet:allow hotpathclock sanctioned one-off read for this fixture
	_ = time.Now()
	return 0
}

func (o *op) TransferBatch(xs []int) {
	_ = time.Now() // want `raw time.Now on the hot path`
}

func (o *op) Transfer(x int) {
	_ = time.Now() // want `raw time.Now on the hot path`
}

// core runs each element through the body its operator hands it, a
// function field: no static call edge leads from ProcessBatch to it.
type core struct {
	apply func(x int)
}

func (c *core) ProcessBatch(xs []int) {
	for _, x := range xs {
		c.apply(x)
	}
}

// grouped is an ordered operator: its per-element body is hot although
// only the core's function field reaches it.
type grouped struct {
	core
	last time.Time
}

func newGrouped() *grouped {
	g := &grouped{}
	g.apply = g.processOne
	return g
}

func (g *grouped) processOne(x int) {
	g.last = time.Now() // want `raw time.Now on the hot path`
}

// sysClock is a Clock implementation: the injection point for real time,
// exempt by construction.
type sysClock struct{}

func (sysClock) Now() time.Time { return time.Now() }

// cold is not reachable from any hot root: unrestricted.
func cold() { _ = time.Now() }
