// Package pubsub is a minimal stand-in for pipes/internal/pubsub: the
// built-in lock-class table matches PipeBase.ProcMu here by suffix.
package pubsub

import "sync"

// PipeBase carries the inner-class processing mutex.
type PipeBase struct {
	ProcMu sync.Mutex
}

// Pipe is the node interface statistics code may be tempted to call.
type Pipe interface {
	Len() int
}
