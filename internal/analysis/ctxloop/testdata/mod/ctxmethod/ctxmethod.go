// Package ctxmethod is a ctxloop fixture: its only context is a method
// parameter, which puts the whole package under the cancellation
// contract.
package ctxmethod

import "context"

type Pool struct{ n int }

// Drain takes its context as a parameter.
func (p *Pool) Drain(ctx context.Context) error {
	p.n = 0
	return ctx.Err()
}

// Spin can never observe cancellation.
func Spin() int {
	n := 0
	for { // want "infinite for loop"
		n++
	}
}
