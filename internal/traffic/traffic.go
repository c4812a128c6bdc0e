// Package traffic implements the paper's first demonstration scenario: a
// synthetic stand-in for the Freeway Service Patrol (FSP) loop-detector
// data collected on highway I-880 near Hayward, California. The generator
// reproduces the trace's structure — 100 loop detectors over a ten-mile
// section, five lanes including a dedicated HOV lane, two directions, and
// per-vehicle records carrying detector position, lane, timestamp, speed
// and vehicle length — with a rush-hour rate profile and injectable
// incidents that depress speeds on a section, so the Linear-Road-style
// continuous queries (average HOV speed in the last hour; sections slow
// for 15 minutes) exercise realistic dynamics. The real 1993 trace is not
// redistributable; the synthetic generator preserves the statistical
// features the demonstrated queries depend on.
package traffic

import (
	"math"
	"math/rand"

	"pipes/internal/cql"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// Lane indices; lane HOVLane is the high-occupancy-vehicle lane.
const (
	Lanes   = 5
	HOVLane = 4
)

// Directions of measurement along I-880.
const (
	DirOakland  = "oakland"
	DirSanJose  = "sanjose"
	NumSections = 10 // ten one-mile sections, ten detectors each
)

// Reading is one loop-detector measurement (one vehicle passing).
type Reading struct {
	Detector  int    // 0..Detectors-1; section = Detector / (Detectors/NumSections)
	Lane      int    // 0..Lanes-1
	Direction string // DirOakland or DirSanJose
	Timestamp temporal.Time
	Speed     float64 // mph
	Length    float64 // vehicle length, metres
}

// Section returns the highway section (0..NumSections-1) of the reading,
// assuming cfg.Detectors detectors spread evenly.
func (r Reading) Section(detectors int) int {
	per := detectors / NumSections
	if per == 0 {
		per = 1
	}
	s := r.Detector / per
	if s >= NumSections {
		s = NumSections - 1
	}
	return s
}

// Tuple converts the reading for the CQL catalog.
func (r Reading) Tuple(detectors int) cql.Tuple {
	return cql.Tuple{
		"detector":  r.Detector,
		"section":   r.Section(detectors),
		"lane":      r.Lane,
		"direction": r.Direction,
		"speed":     r.Speed,
		"length":    r.Length,
	}
}

// Incident depresses speeds on a section during an interval, the signal
// the congestion-detection query must find.
type Incident struct {
	Section     int
	Direction   string
	Start, End  temporal.Time
	SpeedFactor float64 // multiply speeds by this (e.g. 0.3)
}

// Config parameterises the generator. Times are in seconds of simulated
// clock.
type Config struct {
	Detectors   int   // default 100
	Seed        int64 // deterministic streams per seed
	MeanGapSec  float64
	BaseSpeed   float64 // mph, default 60
	HOVBonus    float64 // extra mph on the HOV lane, default 8
	RushFactor  float64 // rate multiplier amplitude over the day, default 0.6
	Incidents   []Incident
	MaxReadings int // stop after this many readings (0 = unbounded)
}

func (c Config) withDefaults() Config {
	if c.Detectors <= 0 {
		c.Detectors = 100
	}
	if c.MeanGapSec <= 0 {
		c.MeanGapSec = 2.0
	}
	if c.BaseSpeed <= 0 {
		c.BaseSpeed = 60
	}
	if c.HOVBonus == 0 {
		c.HOVBonus = 8
	}
	if c.RushFactor == 0 {
		c.RushFactor = 0.6
	}
	return c
}

// Generator produces readings in global timestamp order by maintaining a
// per-detector next-arrival event heap.
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	next  []temporal.Time // next arrival per (detector, direction)
	count int
}

// NewGenerator returns a deterministic generator for cfg.
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.next = make([]temporal.Time, cfg.Detectors*2)
	for i := range g.next {
		g.next[i] = temporal.Time(g.rng.Intn(int(cfg.MeanGapSec*1000) + 1))
	}
	return g
}

// Next returns the next reading in timestamp order, or false once
// MaxReadings is reached.
func (g *Generator) Next() (Reading, bool) {
	if g.cfg.MaxReadings > 0 && g.count >= g.cfg.MaxReadings {
		return Reading{}, false
	}
	g.count++

	// Earliest pending arrival.
	best := 0
	for i := 1; i < len(g.next); i++ {
		if g.next[i] < g.next[best] {
			best = i
		}
	}
	det := best / 2
	dir := DirOakland
	if best%2 == 1 {
		dir = DirSanJose
	}
	ts := g.next[best]

	lane := g.rng.Intn(Lanes)
	r := Reading{
		Detector:  det,
		Lane:      lane,
		Direction: dir,
		Timestamp: ts,
		Speed:     g.speed(det, lane, dir, ts),
		Length:    3.5 + g.rng.Float64()*15, // cars to trucks
	}

	// Schedule the next vehicle at this detector: exponential gap scaled
	// by the time-of-day rate profile (rush hours ≈ denser traffic).
	rate := 1.0 + g.cfg.RushFactor*rushProfile(ts)
	gapMS := g.rng.ExpFloat64() * g.cfg.MeanGapSec * 1000 / rate
	if gapMS < 1 {
		gapMS = 1
	}
	g.next[best] = ts + temporal.Time(gapMS)
	return r, true
}

// speed draws the vehicle speed given lane, congestion and incidents.
func (g *Generator) speed(det, lane int, dir string, ts temporal.Time) float64 {
	s := g.cfg.BaseSpeed
	if lane == HOVLane {
		s += g.cfg.HOVBonus
	}
	// Rush hours slow everyone down.
	s *= 1 - 0.3*rushProfile(ts)
	// Incidents depress the affected section drastically.
	section := Reading{Detector: det}.Section(g.cfg.Detectors)
	for _, inc := range g.cfg.Incidents {
		if inc.Section == section && inc.Direction == dir &&
			ts >= inc.Start && ts < inc.End {
			s *= inc.SpeedFactor
		}
	}
	// Per-vehicle noise.
	s += g.rng.NormFloat64() * 4
	if s < 3 {
		s = 3
	}
	return s
}

// rushProfile is a smooth 0..1 daily congestion profile peaking at the
// morning and evening rush (timestamps in milliseconds of the day).
func rushProfile(ts temporal.Time) float64 {
	hour := math.Mod(float64(ts)/3.6e6, 24)
	morning := math.Exp(-sq(hour-8) / 2)
	evening := math.Exp(-sq(hour-17) / 2)
	p := morning + evening
	if p > 1 {
		p = 1
	}
	return p
}

func sq(x float64) float64 { return x * x }

// Source returns a pubsub emitter publishing the generator's readings as
// chronon tuple elements (for CQL queries via the catalog).
func (g *Generator) Source(name string) *pubsub.FuncSource {
	detectors := g.cfg.Detectors
	return pubsub.NewFuncSource(name, func() (temporal.Element, bool) {
		r, ok := g.Next()
		if !ok {
			return temporal.Element{}, false
		}
		return temporal.At(r.Tuple(detectors), r.Timestamp), true
	})
}

// The demonstration's continuous queries, as CQL text over the stream
// registered as "traffic" (timestamps in milliseconds).
const (
	// QueryAvgHOVSpeed: average speed of HOVs driving toward Oakland
	// within the last hour.
	QueryAvgHOVSpeed = `SELECT AVG(speed) AS avghov FROM traffic [RANGE 3600000]
		WHERE lane = 4 AND direction = 'oakland'`

	// QueryAvgSectionSpeed: per-section average speed over the last 15
	// minutes on the Oakland-bound carriageway — the input of congestion
	// detection (mixing directions would mask one-directional incidents).
	QueryAvgSectionSpeed = `SELECT section, AVG(speed) AS avgspeed
		FROM traffic [RANGE 900000] WHERE direction = 'oakland'
		GROUP BY section`
)

// CongestionEvent is a maximal period during which a section's 15-minute
// average speed stayed below the threshold.
type CongestionEvent struct {
	Section  int
	Interval temporal.Interval
}

// DetectCongestion post-processes the QueryAvgSectionSpeed result stream:
// it keeps spans whose average is below threshold, merges adjacent spans
// per section and reports those lasting at least minDuration — "at which
// sections is the average speed below a threshold constantly for 15
// minutes".
func DetectCongestion(spans []temporal.Element, threshold float64, minDuration temporal.Time) []CongestionEvent {
	type state struct{ iv temporal.Interval }
	open := map[int]*state{}
	var out []CongestionEvent
	closeOut := func(sec int, st *state) {
		if st.iv.Duration() >= minDuration {
			out = append(out, CongestionEvent{Section: sec, Interval: st.iv})
		}
	}
	for _, e := range spans {
		tp, ok := e.Value.(cql.Tuple)
		if !ok {
			continue
		}
		secV, _ := tp.Get("section")
		sec, ok := secV.(int)
		if !ok {
			continue
		}
		avgV, _ := tp.Get("avgspeed")
		avg, ok := avgV.(float64)
		if !ok {
			continue
		}
		st := open[sec]
		if avg < threshold {
			switch {
			case st == nil:
				open[sec] = &state{iv: e.Interval}
			case e.Start <= st.iv.End:
				if e.End > st.iv.End {
					st.iv.End = e.End
				}
			default:
				closeOut(sec, st)
				open[sec] = &state{iv: e.Interval}
			}
			continue
		}
		if st != nil {
			closeOut(sec, st)
			delete(open, sec)
		}
	}
	for sec, st := range open {
		closeOut(sec, st)
	}
	return out
}
