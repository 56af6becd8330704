// Package shim is a module package, outside the fixture, that declares
// a deprecated compatibility shim: the ctxflow fixture imports it to
// check that a Deprecated: mark crosses a package boundary.
package shim

import "context"

// Run is the canonical context-first entry point.
func Run(ctx context.Context) error {
	return ctx.Err()
}

// RunCtx is the superseded spelling of Run.
//
// Deprecated: use Run.
func RunCtx(ctx context.Context) error {
	return Run(ctx)
}
