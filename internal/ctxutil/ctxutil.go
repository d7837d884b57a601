// Package ctxutil holds the one context helper shared by every
// long-running layer's cancellation checks.
package ctxutil

import "context"

// Err reports the context's error, tolerating a nil context, which means
// "not cancellable".
func Err(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
