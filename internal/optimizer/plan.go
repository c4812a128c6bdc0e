// Package optimizer implements PIPES' rule-based multi-query optimizer
// [extending Roy et al., 16, to stream processing]: a parsed CQL query is
// turned into a canonical logical plan, heuristically expanded into a set
// of snapshot-equivalent variants (join orders, predicate placement), each
// variant is probed against the currently running query graph via
// signature matching, and the cheapest plan under a rate-based cost model
// — with already-running subplans costing nothing — is instantiated. New
// operators are spliced into the running graph through the
// publish-subscribe architecture; matched subplans are reused
// (experiment E8).
package optimizer

import (
	"fmt"
	"strings"

	"pipes/internal/cql"
)

// Plan is a logical operator tree node. Signature returns a canonical
// string identifying the node's semantics including its inputs; equal
// signatures mean shareable subplans.
type Plan interface {
	Children() []Plan
	Signature() string
	// Qualifiers returns the stream qualifiers whose fields this subplan
	// produces (used to classify predicates).
	Qualifiers() map[string]bool
}

// Scan reads a registered raw stream and applies its window. Its output
// is the source's own tuples; Qualifier is how expressions above may
// refer to them (shape.go).
type Scan struct {
	Stream    string
	Qualifier string // stream name, or alias for self-join disambiguation
	Window    cql.Window
}

// Children implements Plan.
func (s *Scan) Children() []Plan { return nil }

// Signature implements Plan.
func (s *Scan) Signature() string {
	return fmt.Sprintf("scan(%s as %s)%s", s.Stream, s.Qualifier, s.Window.String())
}

// Qualifiers implements Plan.
func (s *Scan) Qualifiers() map[string]bool { return map[string]bool{s.Qualifier: true} }

// Select filters tuples by a predicate.
type Select struct {
	Input Plan
	Pred  cql.Expr
}

// Children implements Plan.
func (s *Select) Children() []Plan { return []Plan{s.Input} }

// Signature implements Plan.
func (s *Select) Signature() string {
	return fmt.Sprintf("select[%s](%s)", s.Pred.String(), s.Input.Signature())
}

// Qualifiers implements Plan.
func (s *Select) Qualifiers() map[string]bool { return s.Input.Qualifiers() }

// Join combines two inputs. EquiLeft/EquiRight hold the equi-join key
// expressions (parallel slices, possibly empty); Residual holds remaining
// join predicates evaluated on the pair.
type Join struct {
	Left, Right Plan
	EquiLeft    []cql.Expr
	EquiRight   []cql.Expr
	Residual    cql.Expr // nil when none
}

// Children implements Plan.
func (j *Join) Children() []Plan { return []Plan{j.Left, j.Right} }

// Signature implements Plan.
func (j *Join) Signature() string {
	var conds []string
	for i := range j.EquiLeft {
		conds = append(conds, j.EquiLeft[i].String()+"="+j.EquiRight[i].String())
	}
	if j.Residual != nil {
		conds = append(conds, j.Residual.String())
	}
	return fmt.Sprintf("join[%s](%s)(%s)", strings.Join(conds, "&"), j.Left.Signature(), j.Right.Signature())
}

// Qualifiers implements Plan.
func (j *Join) Qualifiers() map[string]bool {
	out := map[string]bool{}
	for q := range j.Left.Qualifiers() {
		out[q] = true
	}
	for q := range j.Right.Qualifiers() {
		out[q] = true
	}
	return out
}

// Group is grouped aggregation: a group has one column per key expression
// and one per aggregate call, named by their canonical strings. It is
// built as one γ node with the HAVING selection and the projection above
// it, which read the columns through the group's view; a Group no
// projection closes delivers them as SELECT * (SEMANTICS.md §5).
type Group struct {
	Input Plan
	Keys  []cql.Expr
	Calls []cql.Call
}

// Children implements Plan.
func (g *Group) Children() []Plan { return []Plan{g.Input} }

// Signature implements Plan.
func (g *Group) Signature() string {
	var ks, cs []string
	for _, k := range g.Keys {
		ks = append(ks, k.String())
	}
	for _, c := range g.Calls {
		cs = append(cs, c.String())
	}
	return fmt.Sprintf("group[%s|%s](%s)", strings.Join(ks, ","), strings.Join(cs, ","), g.Input.Signature())
}

// Qualifiers implements Plan.
func (g *Group) Qualifiers() map[string]bool { return g.Input.Qualifiers() }

// Project evaluates the select list into the tuples the query delivers.
type Project struct {
	Input Plan
	Items []cql.SelectItem
}

// Children implements Plan.
func (p *Project) Children() []Plan { return []Plan{p.Input} }

// Signature implements Plan.
func (p *Project) Signature() string {
	var is []string
	for _, it := range p.Items {
		if it.Star {
			is = append(is, "*")
			continue
		}
		is = append(is, it.Expr.String()+" AS "+it.OutName())
	}
	return fmt.Sprintf("project[%s](%s)", strings.Join(is, ","), p.Input.Signature())
}

// Qualifiers implements Plan.
func (p *Project) Qualifiers() map[string]bool { return p.Input.Qualifiers() }

// Distinct eliminates duplicate tuples per snapshot.
type Distinct struct{ Input Plan }

// Children implements Plan.
func (d *Distinct) Children() []Plan { return []Plan{d.Input} }

// Signature implements Plan.
func (d *Distinct) Signature() string { return fmt.Sprintf("distinct(%s)", d.Input.Signature()) }

// Qualifiers implements Plan.
func (d *Distinct) Qualifiers() map[string]bool { return d.Input.Qualifiers() }

// Rel applies a relation-to-stream operator.
type Rel struct {
	Input Plan
	Op    cql.RelOp
	Slide int64
}

// Children implements Plan.
func (r *Rel) Children() []Plan { return []Plan{r.Input} }

// Signature implements Plan.
func (r *Rel) Signature() string {
	return fmt.Sprintf("rel[%d,%d](%s)", r.Op, r.Slide, r.Input.Signature())
}

// Qualifiers implements Plan.
func (r *Rel) Qualifiers() map[string]bool { return r.Input.Qualifiers() }

// Explain renders a plan tree as indented text.
func Explain(p Plan) string {
	var b strings.Builder
	var rec func(Plan, int)
	rec = func(n Plan, depth int) {
		line := n.Signature()
		// Show only the node's own header, not nested signatures.
		if i := strings.IndexByte(line, '('); i > 0 && len(n.Children()) > 0 {
			line = line[:i]
		}
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), line)
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(p, 0)
	return b.String()
}

// FromQuery builds the canonical logical plan of a parsed query:
// selections pushed onto single-stream inputs, a left-deep join tree in
// FROM order, grouping/having, projection (always, SELECT * included: it
// is the one node that builds the tuples a query delivers), distinct and
// the relation-to-stream wrapper. Alias references are rewritten to stream
// qualifiers so that identical logic from different queries produces
// identical signatures (maximal sharing); a stream scanned twice keeps its
// aliases as distinct qualifiers.
func FromQuery(q *cql.Query) (Plan, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("optimizer: query has no FROM items")
	}

	// alias → qualifier mapping.
	streamCount := map[string]int{}
	for _, f := range q.From {
		streamCount[f.Stream]++
	}
	aliasToQual := map[string]string{}
	for _, f := range q.From {
		if streamCount[f.Stream] > 1 {
			aliasToQual[f.Alias] = f.Alias // self-join: keep alias
		} else {
			aliasToQual[f.Alias] = f.Stream
		}
	}
	rw := func(e cql.Expr) cql.Expr { return rewriteQualifiers(e, aliasToQual) }

	// Scans.
	scans := make([]Plan, len(q.From))
	qualOf := make([]string, len(q.From))
	for i, f := range q.From {
		qual := aliasToQual[f.Alias]
		w := f.Window
		if w.Kind == cql.WindowPartitionRows {
			w.PartitionBy = rewriteName(w.PartitionBy, aliasToQual)
		}
		scans[i] = &Scan{Stream: f.Stream, Qualifier: qual, Window: w}
		qualOf[i] = qual
	}

	// Classify WHERE conjuncts.
	var single = map[string][]cql.Expr{} // qualifier → predicates
	var joinConds []cql.Expr             // multi-stream conjuncts
	if q.Where != nil {
		for _, c := range splitConjuncts(rw(q.Where)) {
			quals := exprQualifiers(c)
			switch {
			case len(quals) == 1 && len(q.From) >= 1:
				for qq := range quals {
					single[qq] = append(single[qq], c)
				}
			case len(quals) == 0 && len(q.From) == 1:
				// Unqualified single-stream predicate.
				single[qualOf[0]] = append(single[qualOf[0]], c)
			default:
				joinConds = append(joinConds, c)
			}
		}
	}

	// Push single-stream selections onto their scans.
	inputs := make([]Plan, len(scans))
	for i, s := range scans {
		inputs[i] = s
		for _, pred := range single[qualOf[i]] {
			inputs[i] = &Select{Input: inputs[i], Pred: pred}
		}
	}

	root, rest, err := buildJoinTree(inputs, joinConds)
	if err != nil {
		return nil, err
	}
	// Conjuncts never attached to a join (e.g. unqualified multi-stream
	// fields) filter on top.
	for _, c := range rest {
		root = &Select{Input: root, Pred: c}
	}

	// Aggregation: collect calls from SELECT and HAVING.
	var calls []cql.Call
	callSeen := map[string]bool{}
	collect := func(e cql.Expr) {
		for _, c := range cql.CollectCalls(e) {
			rwc := rw(c).(cql.Call)
			if !callSeen[rwc.String()] {
				callSeen[rwc.String()] = true
				calls = append(calls, rwc)
			}
		}
	}
	for _, it := range q.Select {
		if !it.Star {
			collect(it.Expr)
		}
	}
	if q.Having != nil {
		collect(q.Having)
	}

	if len(calls) > 0 || len(q.GroupBy) > 0 {
		keys := make([]cql.Expr, len(q.GroupBy))
		for i, k := range q.GroupBy {
			keys[i] = rw(k)
		}
		root = &Group{Input: root, Keys: keys, Calls: calls}
		if q.Having != nil {
			root = &Select{Input: root, Pred: rw(q.Having)}
		}
	}

	// Projection, always: it is where the query's tuples are built, with
	// the names it delivers them by (SELECT * included).
	items := make([]cql.SelectItem, len(q.Select))
	for i, it := range q.Select {
		items[i] = it
		if !it.Star {
			items[i].Expr = rw(it.Expr)
			if it.Alias == "" {
				items[i].Alias = items[i].Expr.String()
			}
		}
	}
	root = &Project{Input: root, Items: items}
	if q.Distinct {
		root = &Distinct{Input: root}
	}
	if q.Relation != cql.RelNone {
		root = &Rel{Input: root, Op: q.Relation, Slide: q.RStreamSlide}
	}
	// Every expression will be compiled against the shape of the edge
	// below it; a plan without one is refused before anything is built.
	if _, err := ShapeOf(root); err != nil {
		return nil, err
	}
	return root, nil
}

// buildJoinTree folds inputs left-deep, attaching every conjunct whose
// qualifiers are covered once the new input joins. It returns unattached
// conjuncts for top-level filtering.
func buildJoinTree(inputs []Plan, conds []cql.Expr) (Plan, []cql.Expr, error) {
	root := inputs[0]
	remaining := append([]cql.Expr{}, conds...)
	for i := 1; i < len(inputs); i++ {
		right := inputs[i]
		covered := root.Qualifiers()
		for q := range right.Qualifiers() {
			covered[q] = true
		}
		var attach, keep []cql.Expr
		for _, c := range remaining {
			if subset(exprQualifiers(c), covered) {
				attach = append(attach, c)
			} else {
				keep = append(keep, c)
			}
		}
		remaining = keep
		root = makeJoin(root, right, attach)
	}
	return root, remaining, nil
}

// makeJoin classifies the attached conjuncts into equi-key pairs and a
// residual predicate.
func makeJoin(left, right Plan, conds []cql.Expr) *Join {
	j := &Join{Left: left, Right: right}
	var residual []cql.Expr
	lq, rq := left.Qualifiers(), right.Qualifiers()
	for _, c := range conds {
		if b, ok := c.(cql.Binary); ok && b.Op == "=" {
			lside, rside := exprQualifiers(b.L), exprQualifiers(b.R)
			switch {
			case len(lside) > 0 && subset(lside, lq) && subset(rside, rq):
				j.EquiLeft = append(j.EquiLeft, b.L)
				j.EquiRight = append(j.EquiRight, b.R)
				continue
			case len(lside) > 0 && subset(lside, rq) && subset(rside, lq):
				j.EquiLeft = append(j.EquiLeft, b.R)
				j.EquiRight = append(j.EquiRight, b.L)
				continue
			}
		}
		residual = append(residual, c)
	}
	j.Residual = conjoin(residual)
	return j
}

// splitConjuncts flattens nested ANDs.
func splitConjuncts(e cql.Expr) []cql.Expr {
	if b, ok := e.(cql.Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []cql.Expr{e}
}

// conjoin rebuilds a conjunction (nil for empty).
func conjoin(es []cql.Expr) cql.Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = cql.Binary{Op: "AND", L: out, R: e}
	}
	return out
}

// exprQualifiers returns the stream qualifiers of all qualified fields in
// e; unqualified fields contribute nothing.
func exprQualifiers(e cql.Expr) map[string]bool {
	out := map[string]bool{}
	for _, f := range cql.CollectFields(e) {
		if i := strings.IndexByte(f, '.'); i > 0 {
			out[f[:i]] = true
		}
	}
	return out
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// rewriteQualifiers replaces alias prefixes in field names by their
// canonical qualifiers.
func rewriteQualifiers(e cql.Expr, m map[string]string) cql.Expr {
	switch v := e.(type) {
	case cql.Field:
		return cql.Field{Name: rewriteName(v.Name, m)}
	case cql.Binary:
		return cql.Binary{Op: v.Op, L: rewriteQualifiers(v.L, m), R: rewriteQualifiers(v.R, m)}
	case cql.Not:
		return cql.Not{E: rewriteQualifiers(v.E, m)}
	case cql.Neg:
		return cql.Neg{E: rewriteQualifiers(v.E, m)}
	case cql.Call:
		out := cql.Call{Fn: v.Fn, Star: v.Star}
		if v.Arg != nil {
			out.Arg = rewriteQualifiers(v.Arg, m)
		}
		return out
	}
	return e
}

func rewriteName(name string, m map[string]string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		if q, ok := m[name[:i]]; ok {
			return q + name[i:]
		}
	}
	return name
}
