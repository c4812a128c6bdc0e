package optimizer

import (
	"pipes/internal/cql"
)

// Enumerate heuristically produces snapshot-equivalent variants of a
// canonical plan: every join-order permutation of the FROM inputs (capped
// at 4 inputs, beyond which only the canonical order is kept). Selections
// remain pushed down; the upper chain (group/project/distinct/rel) is
// preserved.
func Enumerate(p Plan) []Plan {
	// Locate the topmost join and the chain above it.
	chain, joinRoot := upperChain(p)
	if joinRoot == nil {
		return []Plan{p}
	}
	inputs, conds := decomposeJoins(joinRoot)
	if len(inputs) < 2 || len(inputs) > 4 {
		return []Plan{p}
	}
	var out []Plan
	for _, perm := range permutations(len(inputs)) {
		permuted := make([]Plan, len(inputs))
		for i, idx := range perm {
			permuted[i] = inputs[idx]
		}
		root, rest, err := buildJoinTree(permuted, conds)
		if err != nil {
			continue
		}
		for _, c := range rest {
			root = &Select{Input: root, Pred: c}
		}
		out = append(out, rebuild(chain, root))
	}
	if len(out) == 0 {
		return []Plan{p}
	}
	return out
}

// upperChain splits p into the nodes above the first Join (outermost
// first) and that join; joinRoot is nil when the plan has no join.
func upperChain(p Plan) (chain []Plan, joinRoot *Join) {
	cur := p
	for {
		switch v := cur.(type) {
		case *Join:
			return chain, v
		case *Scan:
			return chain, nil
		case *Select:
			chain = append(chain, v)
			cur = v.Input
		case *Project:
			chain = append(chain, v)
			cur = v.Input
		case *Group:
			chain = append(chain, v)
			cur = v.Input
		case *Distinct:
			chain = append(chain, v)
			cur = v.Input
		case *Rel:
			chain = append(chain, v)
			cur = v.Input
		default:
			return chain, nil
		}
	}
}

// rebuild re-wraps root with copies of the chain nodes (outermost first).
func rebuild(chain []Plan, root Plan) Plan {
	for i := len(chain) - 1; i >= 0; i-- {
		switch v := chain[i].(type) {
		case *Select:
			root = &Select{Input: root, Pred: v.Pred}
		case *Project:
			root = &Project{Input: root, Items: v.Items}
		case *Group:
			root = &Group{Input: root, Keys: v.Keys, Calls: v.Calls}
		case *Distinct:
			root = &Distinct{Input: root}
		case *Rel:
			root = &Rel{Input: root, Op: v.Op, Slide: v.Slide}
		}
	}
	return root
}

// decomposeJoins flattens a left-deep join tree into its leaf inputs and
// all join conditions.
func decomposeJoins(j *Join) (inputs []Plan, conds []cql.Expr) {
	var walk func(Plan)
	walk = func(p Plan) {
		jn, ok := p.(*Join)
		if !ok {
			inputs = append(inputs, p)
			return
		}
		walk(jn.Left)
		walk(jn.Right)
		for i := range jn.EquiLeft {
			conds = append(conds, cql.Binary{Op: "=", L: jn.EquiLeft[i], R: jn.EquiRight[i]})
		}
		if jn.Residual != nil {
			conds = append(conds, splitConjuncts(jn.Residual)...)
		}
	}
	walk(j)
	return inputs, conds
}

func permutations(n int) [][]int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			perm := make([]int, n)
			copy(perm, idx)
			out = append(out, perm)
			return
		}
		for i := k; i < n; i++ {
			idx[k], idx[i] = idx[i], idx[k]
			rec(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	rec(0)
	return out
}

// Cost estimates a plan's processing cost under the catalog's declared
// stream rates (nil: the default rate for every stream): a classic
// rate-based model where each operator contributes its input rate (work)
// and produces an output rate derived from heuristic selectivities.
// Subplans already running (per the shared predicate) cost nothing extra —
// this is what makes the optimizer prefer plans maximally overlapping the
// live query graph.
func Cost(p Plan, cat *Catalog, shared func(signature string) bool) float64 {
	rateOf := func(string) float64 { return 0 }
	if cat != nil {
		rateOf = cat.RateOf
	}
	_, cost := costRec(p, rateOf, func(sig string) (float64, bool) {
		return 0, shared != nil && shared(sig)
	})
	return cost
}

// costRec prices p. rateOf gives a stream's rate (0: the default); running
// reports whether a subplan already runs and its measured output rate (0:
// unmeasured, the estimate stands). A running subplan costs nothing.
func costRec(p Plan, rateOf func(string) float64, running func(string) (float64, bool)) (rate, cost float64) {
	r, ok := running(p.Signature())
	if !ok {
		return costNode(p, rateOf, running)
	}
	if r <= 0 {
		r, _ = costNode(p, rateOf, running)
	}
	return r, 0
}

func costNode(p Plan, rateOf func(string) float64, running func(string) (float64, bool)) (rate, cost float64) {
	switch v := p.(type) {
	case *Scan:
		r := 1000.0
		if sr := rateOf(v.Stream); sr > 0 {
			r = sr
		}
		return r, r
	case *Select:
		inR, inC := costRec(v.Input, rateOf, running)
		return inR * selEstimate(v.Pred), inC + inR
	case *Join:
		lR, lC := costRec(v.Left, rateOf, running)
		rR, rC := costRec(v.Right, rateOf, running)
		sel := 0.5
		if len(v.EquiLeft) > 0 {
			sel = 0.05
		}
		if v.Residual != nil {
			sel *= selEstimate(v.Residual)
		}
		out := sel * lR * rR / 100
		// Probing cost grows with both input rates; equi-joins probe
		// hashed buckets, theta joins scan.
		probe := lR + rR
		if len(v.EquiLeft) == 0 {
			probe = lR*rR/100 + lR + rR
		}
		return out, lC + rC + probe + out
	case *Group:
		inR, inC := costRec(v.Input, rateOf, running)
		return inR * 0.2, inC + inR
	case *Project:
		inR, inC := costRec(v.Input, rateOf, running)
		return inR, inC + inR
	case *Distinct:
		inR, inC := costRec(v.Input, rateOf, running)
		return inR * 0.5, inC + inR
	case *Rel:
		inR, inC := costRec(v.Input, rateOf, running)
		return inR, inC + inR
	}
	return 0, 0
}

// selEstimate is the textbook heuristic selectivity of a predicate.
func selEstimate(e cql.Expr) float64 {
	switch v := e.(type) {
	case cql.Binary:
		switch v.Op {
		case "AND":
			return selEstimate(v.L) * selEstimate(v.R)
		case "OR":
			s := selEstimate(v.L) + selEstimate(v.R)
			if s > 1 {
				s = 1
			}
			return s
		case "=":
			return 0.1
		case "!=", "<>":
			return 0.9
		default:
			return 0.3
		}
	case cql.Not:
		return 1 - selEstimate(v.E)
	}
	return 0.5
}
