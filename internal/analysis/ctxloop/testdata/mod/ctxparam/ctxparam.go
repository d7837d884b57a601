// Package ctxparam is a ctxloop fixture: it declares no struct with a
// context field, only a function with a context.Context parameter, which
// puts the whole package under the cancellation contract.
package ctxparam

import "context"

// Wait takes its context as a parameter.
func Wait(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

// Spin can never observe cancellation.
func Spin() int {
	n := 0
	for { // want "infinite for loop"
		n++
	}
}
