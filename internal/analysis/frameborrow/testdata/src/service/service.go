// Package service exercises frameborrow's value rule: a terminal sink
// that does not declare KeepsValues is lent the element values as well
// as the frame, so nothing reachable from a value may outlive
// ProcessBatch.
package service

import "temporal"

type row map[string]any

var lastValue any

// keeper declares nothing and then keeps values in every way the rule
// covers.
type keeper struct {
	last  any
	row   row
	rows  []row
	vals  []any
	elem  temporal.Element
	seen  map[any]bool
	byKey map[string]any
	inner []any
}

func (k *keeper) ProcessBatch(b temporal.Batch, _ int) {
	k.last = b[0].Value // want `storing a lent element value`
	for _, e := range b {
		k.row = e.Value.(row)            // want `storing a lent element value`
		k.vals = append(k.vals, e.Value) // want `storing a lent element value`
		k.seen[e.Value] = true           // want `storing a lent element value`
		k.elem = e                       // want `storing a lent element value`
		lastValue = e.Value              // want `storing a lent element value`
		r := e.Value.(row)
		k.rows = append(k.rows, r) // want `storing a lent element value`
		k.byKey["k"] = r           // want `storing a lent element value`
		nested := r["list"].([]any)
		k.inner = nested[1:] // want `storing a lent element value`
	}
}

// collector copies whole elements out of the frame: the spread copies
// the elements, but their values are still the lent ones.
type collector struct{ elems []temporal.Element }

func (c *collector) ProcessBatch(b temporal.Batch, _ int) {
	c.elems = append(c.elems, b...) // want `storing a lent element value`
}

// reader declares nothing and keeps only what it derives: scalars read
// out of a value, renderings, counts.
type reader struct {
	n      int
	buf    []byte
	total  float64
	name   string
	starts []temporal.Time
}

func (r *reader) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		v := e.Value.(row)
		r.total += v["price"].(float64)
		r.name = v["name"].(string)
		r.buf = render(r.buf, e.Value)
		r.starts = append(r.starts, e.Start)
		r.n++
	}
}

func render(dst []byte, v any) []byte { return append(dst, '.') }

// owner declares KeepsValues: it is handed owned values and may keep
// them.
type owner struct{ vals []any }

func (o *owner) KeepsValues() {}

func (o *owner) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		o.vals = append(o.vals, e.Value)
	}
}

// pipe is a Source: what it is handed goes on to its own subscribers, so
// it owns it, and may queue values, without declaring anything.
type pipe struct {
	queued []any
	subs   []any
}

func (p *pipe) Subscribe(s any, input int) error   { p.subs = append(p.subs, s); return nil }
func (p *pipe) Unsubscribe(s any, input int) error { return nil }
func (p *pipe) Subscriptions() []any               { return p.subs }

func (p *pipe) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		p.queued = append(p.queued, e.Value)
	}
}

// audited keeps a value behind a reviewed exception.
type audited struct{ last any }

func (a *audited) ProcessBatch(b temporal.Batch, _ int) {
	//pipesvet:allow frameborrow fixture exercises the audited-retention escape hatch
	a.last = b[0].Value
}
