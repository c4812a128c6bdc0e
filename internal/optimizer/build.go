package optimizer

import (
	"fmt"
	"slices"
	"sync"

	"pipes/internal/aggregate"
	"pipes/internal/cql"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/sweeparea"
	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
)

// Catalog maps stream names to their registered raw sources (publishing
// cql.Tuple elements with unqualified field names) and carries their
// declared rates, the cost model's prior until a stream is measured.
type Catalog struct {
	mu      sync.Mutex
	streams map[string]pubsub.Source
	rates   map[string]float64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{streams: map[string]pubsub.Source{}, rates: map[string]float64{}}
}

// Register adds a raw stream under name with a declared element rate
// (elements/second; 0 uses the default). The declared rate is only the
// prior: once the source's flight block has counted elements, the
// optimizer prices the stream at its measured rate.
func (c *Catalog) Register(name string, src pubsub.Source, rate float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.streams[name] = src
	c.rates[name] = rate
}

// Lookup returns the raw source for name.
func (c *Catalog) Lookup(name string) (pubsub.Source, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.streams[name]
	return s, ok
}

// RateOf returns the declared rate of name (0 when unknown).
func (c *Catalog) RateOf(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rates[name]
}

// Instance describes one instantiated (or shared) physical query.
type Instance struct {
	// Root is the physical node producing the query's result stream.
	Root pubsub.Source
	// Plan is the chosen logical plan.
	Plan Plan
	// Cost is the chosen plan's estimated cost (with sharing discounts).
	Cost float64
	// NewNodes and SharedNodes count physical operators created vs reused.
	NewNodes    int
	SharedNodes int
	// Created lists the newly created pipes in build order (for
	// memory-manager, checkpoint, flight and monitoring registration).
	Created []pubsub.Pipe
	// Removed lists the nodes RemoveQuery spliced out of the running graph
	// when it released this instance: those no query references any more,
	// whether this one created them or shared them (for memory-manager,
	// checkpoint and flight deregistration).
	Removed []pubsub.Pipe

	// refs holds one entry per node reference this instance took (created
	// or shared) — the refcounting unit for RemoveQuery.
	refs []*regEntry
}

// Optimizer owns the signature registry of the running query graph and
// instantiates new queries with maximal reuse.
//
// Concurrency: graph mutations (AddQuery, AddPlan, RemoveQuery) are
// serialised by addMu — one mutation spans many registry updates and
// upstream subscriptions, and interleaving two of them could build the
// same subplan twice (the loser's node would be wired into the graph but
// lost from the registry) or revive a subplan mid-splice. Read paths
// (OperatorCount) only take the inner mu. Lock order: addMu strictly
// before mu; pubsub subscription locks are acquired below both.
type Optimizer struct {
	cat *Catalog

	// addMu serialises whole graph mutations (see type comment).
	addMu sync.Mutex

	mu       sync.Mutex
	registry map[string]*regEntry
	streams  map[string]*meter // the catalog's streams as measured, by name
	pass     int               // planning passes so far (meter readings are per pass)
	seq      int
}

// regEntry is one registered physical subplan with its upstream wiring
// (subscribed once its query is admitted, needed again to splice it back
// out), a query refcount and its meter.
type regEntry struct {
	node      pubsub.Pipe
	upstreams []wiring
	wired     bool
	refs      int
	meter     meter
}

// New returns an optimizer over the given catalog.
func New(cat *Catalog) *Optimizer {
	return &Optimizer{cat: cat, registry: map[string]*regEntry{}, streams: map[string]*meter{}}
}

// meter measures a running node's output rate off its flight block: the
// elements the block counted since the optimizer first looked at it, over
// the block clock's elapsed time since then. It reads 0 — unmeasured —
// until the node carries a block that has counted elements since that
// first look. A meter is read once per planning pass and keeps the reading
// for the pass, so every enumerated variant is priced on one reading.
// Callers hold the optimizer's mu.
type meter struct {
	ref       *flight.OpRef // the block first looked at; another block restarts the meter
	elems, at int64         // its count and clock at the first look
	pass      int           // the pass of the reading
	reading   float64
}

func (m *meter) rate(n pubsub.Node, pass int) float64 {
	if m.pass == pass {
		return m.reading
	}
	m.pass, m.reading = pass, 0
	b, ok := n.(interface{ FlightRef() *flight.OpRef })
	if !ok {
		return 0
	}
	ref := b.FlightRef()
	if ref == nil {
		return 0
	}
	if ref != m.ref {
		m.ref, m.elems, m.at = ref, ref.Elements(), ref.NowNS()
		return 0
	}
	if k, dt := ref.Elements()-m.elems, ref.NowNS()-m.at; k > 0 && dt > 0 {
		m.reading = float64(k) * 1e9 / float64(dt)
	}
	return m.reading
}

// cost prices p against the running graph in the current planning pass: a
// stream, and a running subplan, emit at their measured rates (a running
// subplan costing nothing more); until measured, the declared rate or the
// heuristic estimate stands. Caller holds o.mu.
func (o *Optimizer) cost(p Plan) float64 {
	_, c := costRec(p, o.streamRate, func(sig string) (float64, bool) {
		e, ok := o.registry[sig]
		if !ok {
			return 0, false
		}
		return e.meter.rate(e.node, o.pass), true
	})
	return c
}

// streamRate is a stream's measured rate, the catalog's declared one until
// it is measured. Caller holds o.mu.
func (o *Optimizer) streamRate(name string) float64 {
	src, ok := o.cat.Lookup(name)
	if !ok {
		return 0
	}
	m := o.streams[name]
	if m == nil {
		m = &meter{}
		o.streams[name] = m
	}
	if r := m.rate(src, o.pass); r > 0 {
		return r
	}
	return o.cat.RateOf(name)
}

// AddQuery plans, optimises and instantiates a parsed CQL query: the
// enumerated variants are costed against the current registry and the
// cheapest is built, reusing every registered subplan.
func (o *Optimizer) AddQuery(q *cql.Query) (*Instance, error) {
	return o.AddQueryAdmitted(q, nil)
}

// Admission vets a query after its physical operators are built and
// registered but before any of them is subscribed to the running graph.
// It receives the built instance's own counts: newNodes physical
// operators were created, sharedNodes reused. Returning a non-nil error
// releases the instance the way RemoveQuery does — the running graph is
// left as it was — and the error is returned to the caller verbatim. The
// callback runs under the optimizer's mutation lock, so the counts cannot
// be invalidated by a concurrent add or remove — this is the
// admission-control seam of the multi-tenant query service
// (internal/service, SERVICE.md).
type Admission func(newNodes, sharedNodes int) error

// AddQueryAdmitted is AddQuery with an admission gate: after the chosen
// plan is built but before it is wired into the running graph, admit (if
// non-nil) decides whether the query may enter it.
func (o *Optimizer) AddQueryAdmitted(q *cql.Query, admit Admission) (*Instance, error) {
	plan, err := FromQuery(q)
	if err != nil {
		return nil, err
	}
	return o.add(plan, Enumerate(plan), admit)
}

// AddPlan instantiates an already-built logical plan (e.g. one loaded
// from XML via planio) against the running graph, with the same sharing
// semantics as AddQuery.
func (o *Optimizer) AddPlan(p Plan) (*Instance, error) {
	p, err := delivered(p)
	if err != nil {
		return nil, err
	}
	return o.add(p, nil, nil)
}

// add is the one body of AddQuery, AddQueryAdmitted and AddPlan: it
// builds the cheapest of plan and its variants, registering every node,
// lets admit see the counts, then subscribes the new nodes to their
// upstreams, bottom-up. A build error, a rejection or a wiring error
// releases whatever was built, as RemoveQuery would, and hands the node
// names back so a rebuilt graph names its operators as the original did.
func (o *Optimizer) add(plan Plan, variants []Plan, admit Admission) (*Instance, error) {
	o.addMu.Lock()
	defer o.addMu.Unlock()
	o.mu.Lock()
	o.pass++
	best, bestCost := plan, o.cost(plan)
	for _, v := range variants {
		if c := o.cost(v); c < bestCost {
			best, bestCost = v, c
		}
	}
	seq := o.seq
	o.mu.Unlock()

	inst := &Instance{Plan: best, Cost: bestCost}
	root, err := o.instantiate(best, inst)
	if err == nil && admit != nil {
		err = admit(inst.NewNodes, inst.SharedNodes)
	}
	if err == nil {
		err = wire(inst)
	}
	if err != nil {
		_ = o.release(inst) // the add's own error is the one to report
		o.mu.Lock()
		o.seq = seq
		o.mu.Unlock()
		return nil, err
	}
	inst.Root = root
	return inst, nil
}

// wire subscribes each node inst built to its upstreams, in build order.
func wire(inst *Instance) error {
	for _, e := range inst.refs {
		if e.wired {
			continue
		}
		e.wired = true
		for _, w := range e.upstreams {
			if err := w.src.Subscribe(e.node, w.input); err != nil {
				return err
			}
		}
	}
	return nil
}

// OperatorCount returns the number of registered physical subplans — the
// sharing metric of experiment E8.
func (o *Optimizer) OperatorCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.registry)
}

func (o *Optimizer) nodeName(prefix string) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seq++
	return fmt.Sprintf("%s#%d", prefix, o.seq)
}

// wiring is one upstream subscription of a registered node.
type wiring struct {
	src   pubsub.Source
	input int
}

// lookupOrBuild returns a registered node for sig, or builds one with mk
// and registers it, with its upstream subscriptions still to be wired,
// under one query reference.
func (o *Optimizer) lookupOrBuild(sig string, inst *Instance, mk func() (pubsub.Pipe, error), inputs ...wiring) (pubsub.Source, error) {
	o.mu.Lock()
	if e, ok := o.registry[sig]; ok {
		e.refs++
		o.mu.Unlock()
		inst.SharedNodes++
		inst.refs = append(inst.refs, e)
		return e.node, nil
	}
	o.mu.Unlock()

	p, err := mk()
	if err != nil {
		return nil, err
	}
	e := &regEntry{node: p, upstreams: inputs, refs: 1}
	o.mu.Lock()
	o.registry[sig] = e
	o.mu.Unlock()
	inst.NewNodes++
	inst.Created = append(inst.Created, p)
	inst.refs = append(inst.refs, e)
	return p, nil
}

// RemoveQuery releases an instance returned by AddQuery/AddPlan: every
// node of its plan drops one reference, and nodes no query references any
// more are unsubscribed from their upstreams and removed from the running
// graph — the dynamic counterpart of query integration. External sinks
// still subscribed to the removed root stop receiving elements.
func (o *Optimizer) RemoveQuery(inst *Instance) error {
	if inst == nil {
		return fmt.Errorf("optimizer: nil instance")
	}
	// The whole removal — refcount drop, dead-node collection and the
	// upstream splice-out — runs under the mutation lock so a concurrent
	// AddQuery cannot re-reference a subplan that is mid-splice.
	o.addMu.Lock()
	defer o.addMu.Unlock()
	return o.release(inst)
}

// release drops every reference inst holds and splices out, into
// inst.Removed, each node no query references any more. Caller holds
// addMu.
func (o *Optimizer) release(inst *Instance) error {
	o.mu.Lock()
	for _, e := range inst.refs {
		e.refs--
	}
	var dead []*regEntry
	for sig, e := range o.registry {
		if e.refs <= 0 {
			dead = append(dead, e)
			delete(o.registry, sig)
		}
	}
	o.mu.Unlock()
	inst.refs = nil
	var firstErr error
	for _, e := range dead {
		inst.Removed = append(inst.Removed, e.node)
		for _, w := range e.upstreams {
			// The upstream may itself be gone already this round, or the
			// node was never wired: a missing subscription is expected.
			if err := w.src.Unsubscribe(e.node, w.input); err != nil && err != pubsub.ErrNotSubscribed && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// delivered closes p the way the edge contract asks (SEMANTICS.md §5): a
// query root delivers projected tuples, so a hand-built plan whose root
// does not end in a projection gets SELECT * there — below DISTINCT and
// the relation-to-stream operator, where FromQuery puts it. A plan
// FromQuery built comes back as it is.
func delivered(p Plan) (Plan, error) {
	switch v := p.(type) {
	case *Rel:
		in, err := delivered(v.Input)
		if err != nil || in == v.Input {
			return p, err
		}
		return &Rel{Input: in, Op: v.Op, Slide: v.Slide}, nil
	case *Distinct:
		in, err := delivered(v.Input)
		if err != nil || in == v.Input {
			return p, err
		}
		return &Distinct{Input: in}, nil
	}
	shape, err := ShapeOf(p)
	if err != nil {
		return nil, err
	}
	if _, ok := shape.(tupleShape); ok {
		return p, nil
	}
	return &Project{Input: p, Items: []cql.SelectItem{{Star: true}}}, nil
}

// instantiate translates a logical plan bottom-up into physical operators,
// sharing by signature. Every expression a node carries is compiled, when
// the node is built, against the shape of the edge it reads (shape.go):
// nothing an operator runs per element resolves a name, renames a field
// or formats a key.
func (o *Optimizer) instantiate(p Plan, inst *Instance) (pubsub.Source, error) {
	if top, having, g := groupTop(p); g != nil {
		return o.buildGroup(top, having, g, inst)
	}
	switch v := p.(type) {
	case *Scan:
		return o.buildScan(v, inst)
	case *Select:
		in, shape, err := o.input(v.Input, inst)
		if err != nil {
			return nil, err
		}
		return o.lookupOrBuild(v.Signature(), inst, func() (pubsub.Pipe, error) {
			return ops.NewFilter(o.nodeName("σ"), predFn(v.Pred, shape.Resolve)), nil
		}, wiring{in, 0})
	case *Join:
		left, lshape, err := o.input(v.Left, inst)
		if err != nil {
			return nil, err
		}
		right, rshape, err := o.input(v.Right, inst)
		if err != nil {
			return nil, err
		}
		return o.lookupOrBuild(v.Signature(), inst, func() (pubsub.Pipe, error) {
			return o.buildJoin(v, lshape, rshape), nil
		}, wiring{left, 0}, wiring{right, 1})
	case *Project:
		in, shape, err := o.input(v.Input, inst)
		if err != nil {
			return nil, err
		}
		return o.lookupOrBuild(v.Signature(), inst, func() (pubsub.Pipe, error) {
			return ops.NewProject(o.nodeName("π"), projectInto(v.Items, shape)), nil
		}, wiring{in, 0})
	case *Distinct:
		in, err := o.instantiate(v.Input, inst)
		if err != nil {
			return nil, err
		}
		return o.lookupOrBuild(v.Signature(), inst, func() (pubsub.Pipe, error) {
			return ops.NewCoalesce(o.nodeName("δ"), frameKey), nil
		}, wiring{in, 0})
	case *Rel:
		in, err := o.instantiate(v.Input, inst)
		if err != nil {
			return nil, err
		}
		op, slide := v.Op, v.Slide
		return o.lookupOrBuild(v.Signature(), inst, func() (pubsub.Pipe, error) {
			switch op {
			case cql.RelIStream:
				return ops.NewIStream(o.nodeName("istream")), nil
			case cql.RelDStream:
				return ops.NewDStream(o.nodeName("dstream")), nil
			case cql.RelRStream:
				s := temporal.Time(slide)
				if s <= 0 {
					s = 1
				}
				return ops.NewSample(o.nodeName("rstream"), s), nil
			}
			return nil, fmt.Errorf("optimizer: unknown relation operator %d", op)
		}, wiring{in, 0})
	}
	return nil, fmt.Errorf("optimizer: unknown plan node %T", p)
}

// groupTop matches the part of a plan one γ node builds: a Group g, the
// HAVING selection directly above it and the projection top above that.
// A Group no projection closes delivers SELECT * (SEMANTICS.md §5), so top
// is always what the node delivers, and its signature what the node is
// shared under. g is nil when p is no such part.
func groupTop(p Plan) (top *Project, having cql.Expr, g *Group) {
	below := p
	if pr, ok := p.(*Project); ok {
		top, below = pr, pr.Input
	}
	if s, ok := below.(*Select); ok {
		having, below = s.Pred, s.Input
	}
	if g, _ = below.(*Group); g != nil && top == nil {
		top = &Project{Input: p, Items: []cql.SelectItem{{Star: true}}}
	}
	return top, having, g
}

// buildGroup builds the γ node of a groupTop match: HAVING and the select
// list are compiled against the group's view, so a span whose HAVING is
// false emits nothing and every other span delivers its projected tuple.
// The node holds a pending span's tuple as one cell a column and writes
// it into a row it lends as π does when it releases the span
// (ops.NewGroupInto).
func (o *Optimizer) buildGroup(top *Project, having cql.Expr, g *Group, inst *Instance) (pubsub.Source, error) {
	in, shape, err := o.input(g.Input, inst)
	if err != nil {
		return nil, err
	}
	return o.lookupOrBuild(top.Signature(), inst, func() (pubsub.Pipe, error) {
		factory, err := newRowAggFactory(g.Keys, g.Calls, shape)
		if err != nil {
			return nil, err
		}
		var key ops.KeyFunc
		if len(g.Keys) > 0 {
			key = keyFn(g.Keys, shape)
		}
		view := newGroupView(g)
		keep := func(any) bool { return true }
		if having != nil {
			keep = predFn(having, view.Resolve)
		}
		cols, project := projectCells(top.Items, view)
		return ops.NewGroupInto[cql.Tuple](o.nodeName("γ"), key, factory, cols, func(_ any, agg aggregate.Aggregate, vals []any) bool {
			grp := agg.Value()
			if !keep(grp) {
				return false
			}
			project(grp, vals)
			return true
		}), nil
	}, wiring{in, 0})
}

// input instantiates a node's input and derives the shape of the edge
// between them.
func (o *Optimizer) input(p Plan, inst *Instance) (pubsub.Source, Shape, error) {
	shape, err := ShapeOf(p)
	if err != nil {
		return nil, nil, err
	}
	src, err := o.instantiate(p, inst)
	return src, shape, err
}

// buildScan wires raw source → window. Nothing stands between them: the
// scan edge carries the source's own tuples, and a windowless scan is the
// source itself.
func (o *Optimizer) buildScan(s *Scan, inst *Instance) (pubsub.Source, error) {
	raw, ok := o.cat.Lookup(s.Stream)
	if !ok {
		return nil, fmt.Errorf("optimizer: unknown stream %q", s.Stream)
	}
	if s.Window.Kind == cql.WindowNone {
		return raw, nil
	}
	win := s.Window
	return o.lookupOrBuild(s.Signature(), inst, func() (pubsub.Pipe, error) {
		switch win.Kind {
		case cql.WindowRange:
			if win.Slide == win.N && win.Slide > 0 {
				return ops.NewTumblingWindow(o.nodeName("ω-tumble"), temporal.Time(win.N)), nil
			}
			return ops.NewTimeWindow(o.nodeName("ω-range"), temporal.Time(win.N)), nil
		case cql.WindowRows:
			return ops.NewCountWindow(o.nodeName("ω-rows"), int(win.N)), nil
		case cql.WindowNow:
			return ops.NewNowWindow(o.nodeName("ω-now")), nil
		case cql.WindowUnbounded:
			return ops.NewUnboundedWindow(o.nodeName("ω-unbounded")), nil
		case cql.WindowPartitionRows:
			by := []cql.Expr{cql.Field{Name: win.PartitionBy}}
			return ops.NewPartitionedWindow(o.nodeName("ω-part"),
				keyFn(by, scanShape{qual: s.Qualifier}), int(win.N)), nil
		}
		return nil, fmt.Errorf("optimizer: unknown window kind %d", win.Kind)
	}, wiring{raw, 0})
}

// buildJoin creates the physical join for a logical join node. Its value
// is the pair of its inputs' values (the join's default combiner), so a
// match copies nothing. The residual predicate tests each candidate in
// one pair the node owns, so a test allocates nothing: the join calls it
// under its processing lock, and the pair is cleared after each test.
func (o *Optimizer) buildJoin(v *Join, l, r Shape) *ops.Join {
	var pred ops.Predicate2
	if v.Residual != nil {
		residual := cql.Compile(v.Residual, pairShape{l: l, r: r}.Resolve)
		cand := new(ops.Pair)
		pred = func(lv, rv any) bool {
			cand.Left, cand.Right = lv, rv
			b, _ := residual(cand).(bool)
			*cand = ops.Pair{}
			return b
		}
	}
	if len(v.EquiLeft) > 0 {
		leftKey, rightKey := keyFn(v.EquiLeft, l), keyFn(v.EquiRight, r)
		la := sweeparea.NewHash(rightKey, leftKey)
		ra := sweeparea.NewHash(leftKey, rightKey)
		return ops.NewJoin(o.nodeName("⋈"), la, ra, pred, nil)
	}
	return ops.NewThetaJoin(o.nodeName("⋈θ"), pred, nil)
}

// compileAll compiles each expression against the edge it reads.
func compileAll(exprs []cql.Expr, in Shape) []func(v any) any {
	out := make([]func(any) any, len(exprs))
	for i, e := range exprs {
		out[i] = cql.Compile(e, in.Resolve)
	}
	return out
}

// predFn compiles a boolean expression into an ops predicate.
func predFn(e cql.Expr, resolve cql.Resolver) ops.Predicate {
	eval := cql.Compile(e, resolve)
	return func(v any) bool {
		b, _ := eval(v).(bool)
		return b
	}
}

// keyFn compiles the key expressions of a group-by, an equi-join side or
// a partitioned window. One column is its normalised value; several are
// one string of their renderings (cql.Key, cql.AppendKey).
func keyFn(keys []cql.Expr, in Shape) func(v any) any {
	cols := compileAll(keys, in)
	if len(cols) == 1 {
		col := cols[0]
		return func(v any) any { return cql.Key(col(v)) }
	}
	return func(v any) any {
		buf := make([]byte, 0, 64)
		for i, col := range cols {
			if i > 0 {
				buf = append(buf, '\x1f')
			}
			buf = cql.AppendKey(buf, col(v))
		}
		return string(buf)
	}
}

// projectInto compiles a select list into a function writing the
// projected tuple for v into out: the one place a plan builds a
// cql.Tuple.
func projectInto(items []cql.SelectItem, in Shape) func(v any, out cql.Tuple) {
	type column struct {
		name string
		eval func(v any) any
		star func(v any, out cql.Tuple)
	}
	cols := make([]column, len(items))
	for i, it := range items {
		if it.Star {
			cols[i].star = in.star()
			continue
		}
		cols[i] = column{name: it.OutName(), eval: cql.Compile(it.Expr, in.Resolve)}
	}
	return func(v any, out cql.Tuple) {
		for _, c := range cols {
			if c.star != nil {
				c.star(v, out)
				continue
			}
			out[c.name] = c.eval(v)
		}
	}
}

// projectCells compiles a select list over a group's view into the
// columns of the tuple it projects, in byte order, each once, and a
// function writing the projected tuple for v into one cell a column: what
// projectInto writes into a tuple, a name repeated in the list keeping
// its last value.
func projectCells(items []cql.SelectItem, in groupView) ([]string, func(v any, vals []any)) {
	type column struct {
		name string
		eval func(v any) any
		cell int
	}
	var cols []column
	for _, it := range items {
		if !it.Star {
			cols = append(cols, column{name: it.OutName(), eval: cql.Compile(it.Expr, in.Resolve)})
			continue
		}
		for i, name := range in.names {
			cols = append(cols, column{name: name, eval: in.column(i)})
		}
	}
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.name
	}
	slices.Sort(names)
	names = slices.Compact(names)
	for i := range cols {
		cols[i].cell, _ = slices.BinarySearch(names, cols[i].name)
	}
	return names, func(v any, vals []any) {
		for _, c := range cols {
			vals[c.cell] = c.eval(v)
		}
	}
}

// frameKey keys DISTINCT on the tuple's canonical frame.
func frameKey(v any) any {
	var few [128]byte
	frame, err := v.(cql.Tuple).AppendFrame(few[:0])
	if err != nil {
		// The tuple holds a value no checkpoint could carry either; it
		// is kept as its own duplicate class rather than dropped.
		return new(byte)
	}
	return string(frame)
}
