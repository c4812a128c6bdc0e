package optimizer

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"pipes/internal/cql"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/sweeparea"
	"pipes/internal/temporal"
)

// Catalog maps stream names to their registered raw sources (publishing
// cql.Tuple elements with unqualified field names) and carries rate
// estimates for the cost model.
type Catalog struct {
	mu      sync.Mutex
	streams map[string]pubsub.Source
	rates   map[string]float64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{streams: map[string]pubsub.Source{}, rates: map[string]float64{}}
}

// Register adds a raw stream under name with an expected element rate
// (elements/second; 0 uses the default).
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

// RateOf implements Stats.
func (c *Catalog) RateOf(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rates[name]
}

// SetRate updates a stream's rate estimate (e.g. from live metadata).
func (c *Catalog) SetRate(name string, rate float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rates[name] = rate
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
	// Created lists the newly created pipes (for memory-manager,
	// checkpoint and monitoring registration).
	Created []pubsub.Pipe

	// sigs are the signatures of every node this instance references
	// (created or shared) — the refcounting unit for RemoveQuery.
	sigs []string
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
	seq      int
}

// regEntry is one registered physical subplan with its upstream wiring
// (needed to splice it back out) and a query refcount.
type regEntry struct {
	node      pubsub.Source
	upstreams []wiring
	refs      int
}

// New returns an optimizer over the given catalog.
func New(cat *Catalog) *Optimizer {
	return &Optimizer{cat: cat, registry: map[string]*regEntry{}}
}

// AddQuery plans, optimises and instantiates a parsed CQL query: the
// enumerated variants are costed against the current registry and the
// cheapest is built, reusing every registered subplan.
func (o *Optimizer) AddQuery(q *cql.Query) (*Instance, error) {
	return o.AddQueryAdmitted(q, nil)
}

// Admission vets a planned query before any physical operator is built.
// It receives the node counts of the chosen plan against the current
// registry: newNodes physical operators would be created, sharedNodes
// reused. Returning a non-nil error aborts the add with the running
// graph untouched; the error is returned to the caller verbatim. The
// callback runs under the optimizer's mutation lock, so the counts
// cannot be invalidated by a concurrent add or remove — this is the
// admission-control seam of the multi-tenant query service
// (internal/service, SERVICE.md).
type Admission func(newNodes, sharedNodes int) error

// AddQueryAdmitted is AddQuery with an admission gate: after planning
// and costing but before the first physical operator is built, admit
// (if non-nil) decides whether the query may enter the graph.
func (o *Optimizer) AddQueryAdmitted(q *cql.Query, admit Admission) (*Instance, error) {
	plan, err := FromQuery(q)
	if err != nil {
		return nil, err
	}
	o.addMu.Lock()
	defer o.addMu.Unlock()
	o.mu.Lock()
	shared := func(sig string) bool {
		_, ok := o.registry[sig]
		return ok
	}
	best, bestCost := plan, Cost(plan, o.cat, shared)
	for _, v := range Enumerate(plan) {
		if c := Cost(v, o.cat, shared); c < bestCost {
			best, bestCost = v, c
		}
	}
	o.mu.Unlock()

	if admit != nil {
		newN, sharedN := o.previewCounts(best)
		if err := admit(newN, sharedN); err != nil {
			return nil, err
		}
	}

	inst := &Instance{Plan: best, Cost: bestCost}
	root, err := o.instantiate(best, inst)
	if err != nil {
		return nil, err
	}
	inst.Root = root
	return inst, nil
}

// previewCounts walks a plan the way instantiate will and predicts how
// many physical nodes would be created vs reused, without building
// anything. Caller holds addMu, so the prediction holds until the build.
func (o *Optimizer) previewCounts(p Plan) (newNodes, sharedNodes int) {
	var sigs []string
	planSignatures(p, &sigs)
	o.mu.Lock()
	defer o.mu.Unlock()
	seen := map[string]bool{}
	for _, sig := range sigs {
		if seen[sig] {
			// Second occurrence within this plan: instantiate registers
			// the first build immediately, so the repeat is a share.
			sharedNodes++
			continue
		}
		seen[sig] = true
		if _, ok := o.registry[sig]; ok {
			sharedNodes++
		} else {
			newNodes++
		}
	}
	return newNodes, sharedNodes
}

// planSignatures appends the registry signatures instantiate would look
// up for p, bottom-up in instantiation order. The Scan case mirrors
// buildScan: a qualifier-map signature always, the window signature only
// for windowed scans.
func planSignatures(p Plan, sigs *[]string) {
	switch v := p.(type) {
	case *Scan:
		*sigs = append(*sigs, fmt.Sprintf("qualify(%s as %s)", v.Stream, v.Qualifier))
		if v.Window.Kind != cql.WindowNone {
			*sigs = append(*sigs, v.Signature())
		}
	case *Select:
		planSignatures(v.Input, sigs)
		*sigs = append(*sigs, v.Signature())
	case *Join:
		planSignatures(v.Left, sigs)
		planSignatures(v.Right, sigs)
		*sigs = append(*sigs, v.Signature())
	case *Group:
		planSignatures(v.Input, sigs)
		*sigs = append(*sigs, v.Signature())
	case *Project:
		planSignatures(v.Input, sigs)
		*sigs = append(*sigs, v.Signature())
	case *Distinct:
		planSignatures(v.Input, sigs)
		*sigs = append(*sigs, v.Signature())
	case *Rel:
		planSignatures(v.Input, sigs)
		*sigs = append(*sigs, v.Signature())
	}
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

// wiring is one upstream subscription of a node under construction.
type wiring struct {
	src   pubsub.Source
	input int
}

// lookupOrBuild returns a registered node for sig or builds one with mk,
// wires the given upstream subscriptions into it, and registers it with a
// query refcount.
func (o *Optimizer) lookupOrBuild(sig string, inst *Instance, mk func() (pubsub.Pipe, error), inputs ...wiring) (pubsub.Source, error) {
	o.mu.Lock()
	if e, ok := o.registry[sig]; ok {
		e.refs++
		o.mu.Unlock()
		inst.SharedNodes++
		inst.sigs = append(inst.sigs, sig)
		return e.node, nil
	}
	o.mu.Unlock()

	p, err := mk()
	if err != nil {
		return nil, err
	}
	for _, w := range inputs {
		if err := w.src.Subscribe(p, w.input); err != nil {
			return nil, err
		}
	}
	o.mu.Lock()
	o.registry[sig] = &regEntry{node: p, upstreams: inputs, refs: 1}
	o.mu.Unlock()
	inst.NewNodes++
	inst.Created = append(inst.Created, p)
	inst.sigs = append(inst.sigs, sig)
	return p, nil
}

// AddPlan instantiates an already-built logical plan (e.g. one loaded
// from XML via planio) against the running graph, with the same sharing
// semantics as AddQuery.
func (o *Optimizer) AddPlan(p Plan) (*Instance, error) {
	o.addMu.Lock()
	defer o.addMu.Unlock()
	o.mu.Lock()
	shared := func(sig string) bool {
		_, ok := o.registry[sig]
		return ok
	}
	cost := Cost(p, o.cat, shared)
	o.mu.Unlock()
	inst := &Instance{Plan: p, Cost: cost}
	root, err := o.instantiate(p, inst)
	if err != nil {
		return nil, err
	}
	inst.Root = root
	return inst, nil
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
	o.mu.Lock()
	for _, sig := range inst.sigs {
		if e, ok := o.registry[sig]; ok {
			e.refs--
		}
	}
	// Collect and splice out every dead node.
	var dead []*regEntry
	for sig, e := range o.registry {
		if e.refs <= 0 {
			dead = append(dead, e)
			delete(o.registry, sig)
		}
	}
	o.mu.Unlock()
	inst.sigs = nil
	var firstErr error
	for _, e := range dead {
		sink, ok := e.node.(pubsub.Sink)
		if !ok {
			continue
		}
		for _, w := range e.upstreams {
			if err := w.src.Unsubscribe(sink, w.input); err != nil && firstErr == nil {
				// Upstream may itself already be removed this round; a
				// missing subscription is then expected.
				if err != pubsub.ErrNotSubscribed {
					firstErr = err
				}
			}
		}
	}
	return firstErr
}

// instantiate translates a logical plan bottom-up into physical operators,
// sharing by signature.
func (o *Optimizer) instantiate(p Plan, inst *Instance) (pubsub.Source, error) {
	switch v := p.(type) {
	case *Scan:
		return o.buildScan(v, inst)
	case *Select:
		in, err := o.instantiate(v.Input, inst)
		if err != nil {
			return nil, err
		}
		pred := v.Pred
		return o.lookupOrBuild(v.Signature(), inst, func() (pubsub.Pipe, error) {
			return ops.NewFilter(o.nodeName("σ"), predFn(pred)), nil
		}, wiring{in, 0})
	case *Join:
		left, err := o.instantiate(v.Left, inst)
		if err != nil {
			return nil, err
		}
		right, err := o.instantiate(v.Right, inst)
		if err != nil {
			return nil, err
		}
		return o.lookupOrBuild(v.Signature(), inst, func() (pubsub.Pipe, error) {
			return o.buildJoin(v), nil
		}, wiring{left, 0}, wiring{right, 1})
	case *Group:
		in, err := o.instantiate(v.Input, inst)
		if err != nil {
			return nil, err
		}
		return o.lookupOrBuild(v.Signature(), inst, func() (pubsub.Pipe, error) {
			factory, _, err := newTupleAggFactory(v.Keys, v.Calls)
			if err != nil {
				return nil, err
			}
			var keyFn ops.KeyFunc
			if len(v.Keys) > 0 {
				keys := v.Keys
				keyFn = func(val any) any { return keyFingerprint(val.(cql.Tuple), keys) }
			}
			return ops.NewGroupBy(o.nodeName("γ"), keyFn, factory,
				func(_, agg any) any { return agg }), nil
		}, wiring{in, 0})
	case *Project:
		in, err := o.instantiate(v.Input, inst)
		if err != nil {
			return nil, err
		}
		items := v.Items
		return o.lookupOrBuild(v.Signature(), inst, func() (pubsub.Pipe, error) {
			return ops.NewMap(o.nodeName("π"), func(val any) any {
				t := val.(cql.Tuple)
				out := cql.Tuple{}
				for _, it := range items {
					if it.Star {
						for k, fv := range t {
							out[k] = fv
						}
						continue
					}
					out[it.OutName()] = it.Expr.Eval(t)
				}
				return out
			}), nil
		}, wiring{in, 0})
	case *Distinct:
		in, err := o.instantiate(v.Input, inst)
		if err != nil {
			return nil, err
		}
		return o.lookupOrBuild(v.Signature(), inst, func() (pubsub.Pipe, error) {
			return ops.NewCoalesce(o.nodeName("δ"), func(val any) any {
				return tupleFingerprint(val.(cql.Tuple))
			}), nil
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

// buildScan wires raw source → qualifier map → window. The qualifier map
// is registered separately so scans differing only in window still share
// it.
func (o *Optimizer) buildScan(s *Scan, inst *Instance) (pubsub.Source, error) {
	raw, ok := o.cat.Lookup(s.Stream)
	if !ok {
		return nil, fmt.Errorf("optimizer: unknown stream %q", s.Stream)
	}
	qualSig := fmt.Sprintf("qualify(%s as %s)", s.Stream, s.Qualifier)
	qual := s.Qualifier
	qualified, err := o.lookupOrBuild(qualSig, inst, func() (pubsub.Pipe, error) {
		return ops.NewMap(o.nodeName("qual"), func(val any) any {
			t := val.(cql.Tuple)
			out := make(cql.Tuple, len(t))
			for k, fv := range t {
				out[qual+"."+k] = fv
			}
			return out
		}), nil
	}, wiring{raw, 0})
	if err != nil {
		return nil, err
	}
	if s.Window.Kind == cql.WindowNone {
		return qualified, nil
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
			field := win.PartitionBy
			if !strings.Contains(field, ".") {
				field = qual + "." + field
			}
			fieldName := field
			return ops.NewPartitionedWindow(o.nodeName("ω-part"), func(val any) any {
				v, _ := val.(cql.Tuple).Get(fieldName)
				return v
			}, int(win.N)), nil
		}
		return nil, fmt.Errorf("optimizer: unknown window kind %d", win.Kind)
	}, wiring{qualified, 0})
}

// buildJoin creates the physical join for a logical join node.
func (o *Optimizer) buildJoin(v *Join) *ops.Join {
	combine := func(l, r any) any {
		lt, rt := l.(cql.Tuple), r.(cql.Tuple)
		out := make(cql.Tuple, len(lt)+len(rt))
		for k, fv := range lt {
			out[k] = fv
		}
		for k, fv := range rt {
			out[k] = fv
		}
		return out
	}
	var pred ops.Predicate2
	if v.Residual != nil {
		res := v.Residual
		pred = func(l, r any) bool {
			t := combine(l, r).(cql.Tuple)
			b, _ := res.Eval(t).(bool)
			return b
		}
	}
	if len(v.EquiLeft) > 0 {
		lKeys, rKeys := v.EquiLeft, v.EquiRight
		leftKey := func(val any) any { return keyFingerprint(val.(cql.Tuple), lKeys) }
		rightKey := func(val any) any { return keyFingerprint(val.(cql.Tuple), rKeys) }
		la := sweeparea.NewHash(rightKey, leftKey)
		ra := sweeparea.NewHash(leftKey, rightKey)
		return ops.NewJoin(o.nodeName("⋈"), la, ra, pred, combine)
	}
	return ops.NewThetaJoin(o.nodeName("⋈θ"), pred, combine)
}

// predFn adapts a boolean expression to an ops predicate.
func predFn(e cql.Expr) ops.Predicate {
	return func(v any) bool {
		b, _ := e.Eval(v.(cql.Tuple)).(bool)
		return b
	}
}

// keyFingerprint renders the evaluated key expressions of a tuple to a
// comparable string.
func keyFingerprint(t cql.Tuple, keys []cql.Expr) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%#v", k.Eval(t))
	}
	return strings.Join(parts, "\x1f")
}

// tupleFingerprint renders a whole tuple deterministically (sorted keys).
func tupleFingerprint(t cql.Tuple) string {
	names := make([]string, 0, len(t))
	for k := range t {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = k + "=" + fmt.Sprintf("%#v", t[k])
	}
	return strings.Join(parts, "\x1f")
}
