package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"pipes"
	"pipes/internal/aggregate"
	"pipes/internal/archive"
	"pipes/internal/cql"
	"pipes/internal/ft"
	"pipes/internal/metadata"
	"pipes/internal/ops"
	"pipes/internal/optimizer"
	"pipes/internal/pubsub"
	"pipes/internal/remote"
	"pipes/internal/sched"
	"pipes/internal/service"
	"pipes/internal/telemetry"
	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
	"pipes/internal/traffic"
)

// The layer ladder and the standalone layer probes of the traced run.
// Every rung is the previous one plus one layer, over the same
// pre-generated readings at frame 64; a layer's cost is the difference
// between two adjacent rungs. The probes time single calls into single
// layers. Both are the same in every traced run, whatever the workload.

const (
	ladderPool   = 1 << 17
	ladderCycles = 4
)

// rungNames in ladder order; rung i has the layers of rungs 0..i.
var rungNames = []string{
	"source_sink", "ops_segment", "boundary", "stateful_tail", "flight",
	"monitors", "checkpoint", "service_sink", "remote",
}

const (
	rungSourceSink = iota
	rungOpsSegment
	rungBoundary
	rungStatefulTail
	rungFlight
	rungMonitors
	rungCheckpoint
	rungServiceSink
	rungRemote
)

// rung is one wired ladder graph, ready to drive once.
type rung struct {
	feed    pubsub.BatchEmitter
	tasks   []*sched.BufferTask
	mgr     *ft.Manager
	results func() int64 // elements that reached the end of the rung
	finish  func()       // waits for everything the rung started
}

// tailEngine is the service.Engine of the service_sink rung: a submitted
// query is the ladder chain's tail.
type tailEngine struct{ tail pubsub.Source }

type tailQuery struct{ tail pubsub.Source }

func (q tailQuery) Attach(s pubsub.Sink) error { return q.tail.Subscribe(s, 0) }
func (q tailQuery) Detach(s pubsub.Sink) error { return q.tail.Unsubscribe(s, 0) }
func (q tailQuery) PlanText() string           { return "ladder chain" }
func (q tailQuery) NewNodes() int              { return 0 }
func (q tailQuery) SharedNodes() int           { return 0 }

func (e tailEngine) SubmitQuery(string, func(int, int) error) (service.EngineQuery, error) {
	return tailQuery{e.tail}, nil
}
func (e tailEngine) KillQuery(service.EngineQuery) error { return nil }

// buildRung wires rung `level` over elems.
func buildRung(level int, elems []temporal.Element, ckptRoot string) (*rung, error) {
	r := &rung{finish: func() {}}
	src := pubsub.NewSliceSource("traffic", elems)
	r.feed = src
	var feed pubsub.Source = src
	counter := pubsub.NewCounter("c", 1)
	r.results = counter.Count
	if level == rungSourceSink {
		return r, src.Subscribe(counter, 0)
	}

	var rec *flight.Recorder
	if level >= rungFlight {
		rec = flight.New(0)
	}
	instrument := func(n pubsub.Node) {
		if fi, ok := n.(interface{ SetFlightRef(*flight.OpRef) }); ok && rec != nil {
			fi.SetFlightRef(rec.Ref(n.Name()))
		}
	}
	var tracer *telemetry.Tracer
	if level >= rungMonitors {
		tracer = telemetry.NewTracer(128, 0)
		src.SetTransferHook(func(e temporal.Element) temporal.Element {
			if tr := tracer.MaybeTrace(); tr != nil {
				tr.Hop("traffic", "emit", e.Start)
				e = telemetry.Attach(e, tr)
			}
			return e
		})
	}
	wrap := func(p pubsub.Pipe) pubsub.Pipe {
		instrument(p)
		if tracer != nil {
			p = metadata.NewMonitored(p, metadata.WithTracer(tracer))
			instrument(p)
		}
		return p
	}
	instrument(src)

	o := newChainOps()
	if level >= rungCheckpoint {
		dir, err := os.MkdirTemp(ckptRoot, "pipes-bench-ladder-")
		if err != nil {
			return nil, err
		}
		store, err := ft.NewFileStore(dir)
		if err != nil {
			return nil, err
		}
		r.mgr = ft.NewManager(store)
		cs := ft.NewCheckpointSource(src)
		r.mgr.RegisterSource(cs)
		r.mgr.RegisterOperator(o.agg, o.agg)
		r.mgr.Start(0)
		r.feed, feed = cs, cs
		instrument(cs)
		r.finish = func() {
			r.mgr.Stop()
			os.RemoveAll(dir)
		}
	}

	segment := []pubsub.Pipe{wrap(o.f1), wrap(o.m1), wrap(o.f2)}
	tail := []pubsub.Pipe{wrap(o.f3), wrap(o.m2)}
	if level >= rungStatefulTail {
		tail = append(tail, wrap(o.w), wrap(o.agg))
	}
	connect := func(name string, from pubsub.Source, to pubsub.Sink) error {
		if level < rungBoundary {
			return from.Subscribe(to, 0)
		}
		t, err := sched.Boundary(name, from, to, 0)
		if err != nil {
			return err
		}
		instrument(t.Buffer())
		r.tasks = append(r.tasks, t)
		return nil
	}
	if err := connect("q.in", feed, segment[0]); err != nil {
		return nil, err
	}
	pubsub.Connect(segment[0], segment[1:]...)
	if err := connect("q.mid", segment[len(segment)-1], tail[0]); err != nil {
		return nil, err
	}
	end := pubsub.Connect(tail[0], tail[1:]...)

	if level < rungServiceSink {
		return r, end.Subscribe(counter, 0)
	}
	svc := service.New(tailEngine{end}, []service.TenantConfig{{Name: "t", Token: "t"}})
	info, serr := svc.Submit("t", "ladder", 0)
	if serr != nil {
		return nil, serr
	}
	r.results = func() int64 {
		got, _ := svc.Get("t", info.ID)
		return got.Results
	}
	if level < rungRemote {
		return r, nil
	}
	srv, err := remote.Serve("tail", end, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rd, conn, err := remote.Dial("tail", srv.Addr())
	if err != nil {
		return nil, err
	}
	for srv.ClientCount() == 0 { // the server only fans out to clients it has accepted
		time.Sleep(50 * time.Microsecond)
	}
	if err := rd.Subscribe(counter, 0); err != nil {
		return nil, err
	}
	received := make(chan struct{})
	go func() {
		pubsub.Drive(rd)
		close(received)
	}()
	inner := r.finish
	r.results = counter.Count
	r.finish = func() {
		<-received
		conn.Close()
		inner()
	}
	return r, nil
}

// rungPass drives one rung once. Rungs with a checkpoint manager trigger
// a round every quarter of the input.
func rungPass(level int, elems []temporal.Element, ckptRoot string) (sample, error) {
	r, err := buildRung(level, elems, ckptRoot)
	if err != nil {
		return sample{}, err
	}
	var results int64
	s := measure(int64(len(elems)), func() {
		var tick func(int)
		if r.mgr != nil {
			next := len(elems) / 4
			tick = func(emitted int) {
				if emitted >= next {
					_, _ = r.mgr.Trigger() // a round still in flight is skipped: the rung only has to carry barriers
					next += len(elems) / 4
				}
			}
		}
		drive(r.feed, chainFrame, r.tasks, tick)
		r.finish()
		results = r.results()
	})
	if results == 0 {
		return s, fmt.Errorf("ladder: rung %s delivered nothing", rungNames[level])
	}
	return s, nil
}

// ladder runs every rung and every probe and stores their metrics.
func ladder(cfg config, tr *tracer, res *result) error {
	sp := tr.begin("ladder", 0)
	defer tr.end(sp)
	in := newChainInput(cfg.seed, cfg.scale(ladderPool), ladderCycles)
	// Half of a traced run's budget belongs to the ladder and the probes.
	slice := cfg.budget() / 2 / time.Duration(len(rungNames)+len(probes))
	for level, name := range rungNames {
		var err error
		rsp := tr.begin("rung:"+name, sp)
		passes := repeat(slice, 2, func() sample {
			s, perr := rungPass(level, in.elems, cfg.ckptRoot)
			if perr != nil {
				err = perr
			}
			return s
		})
		tr.end(rsp)
		if err != nil {
			return err
		}
		res.layer["ladder."+name+".ns_per_elem"] = medianOf(passes, sample.nsPerElem)
		res.layer["ladder."+name+".allocs_per_elem"] = medianOf(passes, sample.allocsPerElem)
	}
	for _, p := range probes {
		psp := tr.begin("probe:"+p.name, sp)
		err := p.run(in, slice, cfg, res.layer)
		tr.end(psp)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}

// probe measures one layer on its own.
type probeDef struct {
	name string
	run  func(in *chainInput, budget time.Duration, cfg config, out map[string]float64) error
}

// through times elems flowing source → pipes → counter, emitted by emit.
func through(elems []temporal.Element, budget time.Duration, emit func(*pubsub.SliceSource), mk func() []pubsub.Pipe) (ns, selectivity float64) {
	var out int64
	passes := repeat(budget, 1, func() sample {
		src := pubsub.NewSliceSource("s", elems)
		c := pubsub.NewCounter("c", 1)
		must(pubsub.Connect(src, mk()...).Subscribe(c, 0))
		s := measure(int64(len(elems)), func() { emit(src) })
		out = c.Count()
		return s
	})
	return medianOf(passes, sample.nsPerElem), float64(out) / float64(len(elems))
}

func frames(n int) func(*pubsub.SliceSource) {
	return func(s *pubsub.SliceSource) { pubsub.DriveBatched(s, n) }
}

func noPipes() []pubsub.Pipe { return nil }

// windowed returns elems with their validity extended to w, as a window
// operator would hand them to a stateful operator.
func windowed(elems []temporal.Element, w temporal.Time) []temporal.Element {
	out := make([]temporal.Element, len(elems))
	for i, e := range elems {
		out[i] = temporal.NewElement(e.Value, e.Start, e.Start+w)
	}
	return out
}

var probes = []probeDef{
	{"pubsub", func(in *chainInput, budget time.Duration, _ config, out map[string]float64) error {
		out["pubsub.frame1_ns_per_elem"], _ = through(in.elems, budget/3, frames(1), noPipes)
		out["pubsub.scalar_ns_per_elem"], _ = through(in.elems, budget/3, func(s *pubsub.SliceSource) { pubsub.Drive(s) }, noPipes)
		passes := repeat(budget/3, 1, func() sample {
			src := pubsub.NewSliceSource("s", in.elems)
			buf := pubsub.NewBuffer("b")
			must(src.Subscribe(buf, 0))
			must(buf.Subscribe(pubsub.NewCounter("c", 1), 0))
			return measure(int64(len(in.elems)), func() {
				for more := true; more; {
					_, more = src.EmitBatch(chainFrame)
					buf.Drain(0)
				}
				buf.Drain(0)
			})
		})
		out["pubsub.buffer_ns_per_elem"] = medianOf(passes, sample.nsPerElem)
		return nil
	}},
	{"sched", func(in *chainInput, budget time.Duration, _ config, out map[string]float64) error {
		passes := repeat(budget, 1, func() sample {
			src := pubsub.NewSliceSource("s", in.elems)
			t, err := sched.Boundary("b", src, pubsub.NewCounter("c", 1), 0)
			must(err)
			return measure(int64(len(in.elems)), func() { drive(src, chainFrame, []*sched.BufferTask{t}, nil) })
		})
		out["sched.boundary_ns_per_elem"] = medianOf(passes, sample.nsPerElem)
		return nil
	}},
	{"ops", func(in *chainInput, budget time.Duration, _ config, out map[string]float64) error {
		b := budget / 5
		one := func(name string, elems []temporal.Element, mk func() pubsub.Pipe) {
			out["ops."+name+".ns_per_elem"], out["ops."+name+".selectivity"] =
				through(elems, b, frames(chainFrame), func() []pubsub.Pipe { return []pubsub.Pipe{mk()} })
		}
		one("filter", in.elems, func() pubsub.Pipe { return newChainOps().f1 })
		one("map", in.elems, func() pubsub.Pipe { return newChainOps().m1 })
		one("window", in.elems, func() pubsub.Pipe { return newChainOps().w })
		quarter := windowed(in.elems[:len(in.elems)/4], 1000)
		one("groupby", quarter, func() pubsub.Pipe {
			return ops.NewGroupBy("g", func(v any) any { return v.(traffic.Reading).Detector },
				aggregate.NewCount, nil)
		})
		// The join pairs the two directions of travel on the detector.
		var left, right []temporal.Element
		for _, e := range quarter {
			if e.Value.(traffic.Reading).Direction == traffic.DirOakland {
				left = append(left, e)
			} else {
				right = append(right, e)
			}
		}
		var joined int64
		passes := repeat(b, 1, func() sample {
			l, r := pubsub.NewSliceSource("l", left), pubsub.NewSliceSource("r", right)
			detector := func(v any) any { return v.(traffic.Reading).Detector }
			j := ops.NewEquiJoin("j", detector, detector, func(a, _ any) any { return a })
			c := pubsub.NewCounter("c", 1)
			must(l.Subscribe(j, 0))
			must(r.Subscribe(j, 1))
			must(j.Subscribe(c, 0))
			s := measure(int64(len(quarter)), func() {
				for lm, rm := true, true; lm || rm; {
					if lm {
						_, lm = l.EmitBatch(chainFrame)
					}
					if rm {
						_, rm = r.EmitBatch(chainFrame)
					}
				}
			})
			joined = c.Count()
			return s
		})
		out["ops.join.ns_per_elem"] = medianOf(passes, sample.nsPerElem)
		out["ops.join.selectivity"] = float64(joined) / float64(len(quarter))
		return nil
	}},
	{"cql", func(_ *chainInput, budget time.Duration, cfg config, out map[string]float64) error {
		var parse []float64
		for start := time.Now(); len(parse) < 8 || time.Since(start) < budget/2; {
			for _, q := range cqlQueries {
				t0 := time.Now()
				_, err := cql.Parse(q.text)
				parse = append(parse, us(time.Since(t0)))
				if err != nil {
					return err
				}
			}
		}
		out["cql.parse_us"] = median(parse)
		tuples := newCQLInput(cfg.seed, 4000, 64).bids
		where, err := cql.ParseExpr(`price > 500 AND auction < 1000000 OR bidder = 7`)
		if err != nil {
			return err
		}
		passes := repeat(budget/2, 1, func() sample {
			return measure(int64(len(tuples)), func() {
				for _, e := range tuples {
					where.Eval(e.Value.(cql.Tuple))
				}
			})
		})
		out["cql.eval_ns_per_tuple"] = medianOf(passes, sample.nsPerElem)
		out["cql.eval_allocs_per_tuple"] = medianOf(passes, sample.allocsPerElem)
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for _, e := range tuples {
			if err := enc.Encode(e.Value.(cql.Tuple)); err != nil {
				return err
			}
		}
		out["cql.tuple_gob_bytes"] = float64(buf.Len()) / float64(len(tuples))
		return nil
	}},
	{"optimizer", func(_ *chainInput, budget time.Duration, _ config, out map[string]float64) error {
		cat := optimizer.NewCatalog()
		cat.Register("bids", pubsub.NewSliceSource("bids", nil), 100)
		o := optimizer.New(cat)
		text := func(i int) string {
			// Eight windows × eight thresholds: neighbours share scans and
			// windows, nobody shares a whole plan.
			return fmt.Sprintf(`SELECT auction AS auction FROM bids [RANGE %d] WHERE price > %d`, 1000*(1+i%8), 100*(1+i/8))
		}
		var fresh, shared int
		for i := 0; i < 64; i++ {
			q, err := cql.Parse(text(i))
			if err != nil {
				return err
			}
			inst, err := o.AddQuery(q)
			if err != nil {
				return err
			}
			fresh += inst.NewNodes
			shared += inst.SharedNodes
		}
		out["optimizer.shared_node_frac"] = float64(shared) / float64(shared+fresh)
		out["optimizer.operators"] = float64(o.OperatorCount())
		extra, err := cql.Parse(`SELECT bidder AS bidder FROM bids [RANGE 4000] WHERE price > 450`)
		if err != nil {
			return err
		}
		var add, remove []float64
		for start := time.Now(); len(add) < 16 || time.Since(start) < budget; {
			t0 := time.Now()
			inst, err := o.AddQuery(extra)
			t1 := time.Now()
			if err != nil {
				return err
			}
			if err := o.RemoveQuery(inst); err != nil {
				return err
			}
			add = append(add, us(t1.Sub(t0)))
			remove = append(remove, us(time.Since(t1)))
		}
		out["optimizer.add_us"] = median(add)
		out["optimizer.remove_us"] = median(remove)
		return nil
	}},
	{"service", func(_ *chainInput, budget time.Duration, _ config, out map[string]float64) error {
		d := pipes.NewDSMS(pipes.Config{Workers: 1, ServiceTenants: []pipes.TenantConfig{{Name: "t", Token: "t"}}})
		d.RegisterStream("s", pubsub.NewSliceSource("s", nil), 100)
		svc := d.Service()
		var admit, kill []float64
		for start := time.Now(); len(admit) < 16 || time.Since(start) < budget/2; {
			t0 := time.Now()
			info, serr := svc.Submit("t", svcCycleQuery, 0)
			t1 := time.Now()
			if serr != nil {
				return serr
			}
			if _, serr := svc.Kill("t", info.ID); serr != nil {
				return serr
			}
			admit = append(admit, us(t1.Sub(t0)))
			kill = append(kill, ms(time.Since(t1)))
		}
		out["service.admit_us"] = median(admit)
		out["service.kill_ms"] = median(kill)
		data := []byte(`{"due":123456789,"id":4242,"price":777}`)
		const appends = 1 << 18
		passes := repeat(budget/2, 1, func() sample {
			buf := service.NewResultBuffer(service.DefaultBufferBytes)
			return measure(appends, func() {
				for i := 0; i < appends; i++ {
					buf.Append(data, temporal.Time(i), temporal.Time(i+1))
				}
			})
		})
		out["service.append_ns_per_result"] = medianOf(passes, sample.nsPerElem)
		return nil
	}},
	{"remote", func(in *chainInput, budget time.Duration, _ config, out map[string]float64) error {
		elems := make([]temporal.Element, len(in.elems)/8)
		for i := range elems {
			elems[i] = temporal.At(in.elems[i].Value.(traffic.Reading).Speed, in.elems[i].Start)
		}
		var wire atomic.Int64
		var err error
		passes := repeat(budget, 1, func() sample {
			wire.Store(0)
			src := pubsub.NewSliceSource("s", elems)
			srv, serr := remote.Serve("s", src, "127.0.0.1:0")
			if serr != nil {
				err = serr
				return sample{}
			}
			conn, derr := net.Dial("tcp", srv.Addr())
			if derr != nil {
				err = derr
				return sample{}
			}
			defer conn.Close()
			for srv.ClientCount() == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			rd := remote.NewReader("s", &countingReader{r: conn, n: &wire})
			c := pubsub.NewCounter("c", 1)
			must(rd.Subscribe(c, 0))
			received := make(chan struct{})
			go func() {
				pubsub.Drive(rd)
				close(received)
			}()
			s := measure(int64(len(elems)), func() {
				pubsub.DriveBatched(src, chainFrame)
				<-received
			})
			if c.Count() != int64(len(elems)) {
				err = fmt.Errorf("remote delivered %d of %d elements", c.Count(), len(elems))
			}
			return s
		})
		out["remote.throughput_eps"] = medianOf(passes, sample.eps)
		out["remote.allocs_per_elem"] = medianOf(passes, sample.allocsPerElem)
		out["remote.bytes_per_elem"] = float64(wire.Load()) / float64(len(elems))
		return err
	}},
	{"archive", func(in *chainInput, budget time.Duration, _ config, out map[string]float64) error {
		elems := in.elems[:len(in.elems)/4]
		arch := archive.New("a", 1<<16)
		for _, e := range elems {
			arch.Process(e, 0)
		}
		passes := repeat(budget, 1, func() sample {
			c := pubsub.NewCounter("c", 1)
			return measure(int64(len(elems)), func() {
				src := arch.ReplayFrom("a", 0)
				must(src.Subscribe(c, 0))
				pubsub.DriveBatched(src.(pubsub.BatchEmitter), chainFrame)
			})
		})
		out["archive.replay_ns_per_elem"] = medianOf(passes, sample.nsPerElem)
		return nil
	}},
}

// countingReader counts the bytes read off a connection.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}
