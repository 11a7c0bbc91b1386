// Package app is the spanend golden fixture: spans must be ended by a
// same-function defer; success-only Ends, discarded spans, and defers
// buried in nested literals are flagged.
package app

import (
	"log/slog"

	"gsvettest/obs"
)

var kind = obs.NewSpanKind("app.span", "")

// good: the canonical shape — defer directly after the start.
func deferred() {
	sp := obs.StartSpan(kind)
	defer sp.End()
	work()
}

// good: child span deferred, success attributes via SetAttrs.
func deferredChild(parent *obs.Span) error {
	sp := parent.Child(kind)
	defer sp.End(slog.Int("k", 1))
	if err := fail(); err != nil {
		return err
	}
	sp.SetAttrs(slog.Int("edges", 7))
	return nil
}

// good: End inside a deferred function literal still runs at exit.
func deferredLiteral() {
	sp := obs.StartSpan(kind)
	defer func() {
		sp.End()
	}()
	work()
}

// bad: End only on the success path — an early return drops the span.
func successOnly() error {
	sp := obs.StartSpan(kind) // want `span sp from StartSpan has no same-function`
	if err := fail(); err != nil {
		return err
	}
	sp.End()
	return nil
}

// bad: no End at all.
func neverEnded(parent *obs.Span) {
	sp := parent.Child(kind) // want `span sp from Child has no same-function`
	work()
	_ = sp
}

// bad: the defer lives in a nested literal that is never deferred — it
// runs at the literal's exit (or never), not the starter's.
func nestedDefer() {
	sp := obs.StartSpan(kind) // want `span sp from StartSpan has no same-function`
	cleanup := func() {
		defer sp.End()
	}
	_ = cleanup
}

// bad: a discarded span can never be ended.
func discarded(parent *obs.Span) {
	parent.Child(kind) // want `Child result discarded`
	work()
}

// good: a literal's own span deferred inside the same literal.
func literalOwn() {
	fn := func() {
		sp := obs.StartSpan(kind)
		defer sp.End()
		work()
	}
	fn()
}

// good: suppressed with a documented reason.
func suppressed() {
	//lint:ignore spanend span intentionally handed to a background goroutine that ends it
	sp := obs.StartSpan(kind)
	go func() { sp.End() }()
}

func work()       {}
func fail() error { return nil }
