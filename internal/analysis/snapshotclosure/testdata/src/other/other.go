// Package other is outside the snapshotclosure scope.
package other

import "fmt"

type op struct{ m map[int]int }

func (o *op) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	return func(dst []byte) ([]byte, error) {
		return fmt.Appendf(dst, "%v", o.m), nil // out of scope: no diagnostic
	}, nil
}

type encoder func(dst []byte) ([]byte, error)

func (o *op) capture() encoder {
	return func(dst []byte) ([]byte, error) {
		return fmt.Appendf(dst, "%v", o.m), nil // out of scope: no diagnostic
	}
}
