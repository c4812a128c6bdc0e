// Package flight exercises the built-in lock-class table: Recorder.mu is
// a stats-class leaf lock; nothing may be acquired beneath it.
package flight

import (
	"sync"

	"pubsub"
)

// Recorder mirrors the substrate's shape: a stats mutex over the intern
// table, next to a node it could (wrongly) call into.
type Recorder struct {
	mu   sync.Mutex
	node pubsub.Pipe
	pb   pubsub.PipeBase
	refs map[string]bool
}

// BadDynamic is the PR 2 ABBA shape: an interface call under the stats
// mutex, against a callee that holds its own lock while publishing back.
func (r *Recorder) BadDynamic() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node.Len() // want `dynamic call r.node.Len while holding stats-class lock r.mu`
}

// BadDirect acquires an inner-class lock inside a stats region.
func (r *Recorder) BadDirect() {
	r.mu.Lock()
	r.pb.ProcMu.Lock() // want `acquiring inner-class lock r.pb.ProcMu while holding stats-class lock r.mu`
	r.pb.ProcMu.Unlock()
	r.mu.Unlock()
}

// BadTransitive hides the inner acquisition one call deep; the
// call-graph walk finds it.
func (r *Recorder) BadTransitive() {
	r.mu.Lock()
	r.lockInner() // want `call to lockInner while holding stats-class lock r.mu: it transitively acquires`
	r.mu.Unlock()
}

func (r *Recorder) lockInner() {
	r.pb.ProcMu.Lock()
	r.pb.ProcMu.Unlock()
}

// Good is the fixed read shape: look the entry up under the stats mutex,
// release it, then ask the node.
func (r *Recorder) Good() int {
	r.mu.Lock()
	known := r.refs["queue_len"]
	r.mu.Unlock()
	if !known {
		return 0
	}
	return r.node.Len()
}

// GoodInnerFirst follows the documented order: inner lock first, stats
// leaf lock inside it.
func (r *Recorder) GoodInnerFirst() {
	r.pb.ProcMu.Lock()
	r.mu.Lock()
	r.refs["x"] = true
	r.mu.Unlock()
	r.pb.ProcMu.Unlock()
}
