// Fixture: resource lifecycles the resleak analyzer must accept.
package resleak

import (
	"errors"
	"os"

	"hana/internal/engine"
	"hana/internal/txn"
)

type span struct{}

func (s *span) StartSpan(name string) *span { return s }
func (s *span) End()                        {}
func (s *span) Note(msg string)             {}

func root() *span { return &span{} }

// Scan is the scan-iterator stand-in (pins chunks until closed).
type Scan struct{}

func (it *Scan) Next() bool { return false }
func (it *Scan) Close()     {}

// Table hands out scan iterators.
type Table struct{}

func (t *Table) OpenScan() *Scan { return &Scan{} }

// Breaker is the circuit-breaker stand-in for the probe protocol.
type Breaker struct{}

func (b *Breaker) Allow() error      { return nil }
func (b *Breaker) Success()          {}
func (b *Breaker) Failure(err error) {}

func bad() bool      { return false }
func busy() bool     { return false }
func ping() error    { return nil }
func record(ok bool) {}

// deferredEnd is the canonical pattern: End deferred immediately.
func deferredEnd() error {
	sp := root().StartSpan("work")
	defer sp.End()
	if bad() {
		return errors.New("bad")
	}
	return nil
}

// explicitEnds ends the span on every return path by hand.
func explicitEnds() error {
	sp := root().StartSpan("phase")
	if bad() {
		sp.End()
		return errors.New("bad")
	}
	sp.End()
	return nil
}

// sequentialSpans runs two phases; the first is fully ended before the
// second starts, so later returns need only end the second.
func sequentialSpans() error {
	first := root().StartSpan("first")
	first.End()
	second := root().StartSpan("second")
	if bad() {
		second.End()
		return errors.New("bad")
	}
	second.End()
	return nil
}

// closureEnd ends the span inside a deferred closure.
func closureEnd() {
	sp := root().StartSpan("work")
	defer func() {
		sp.Note("done")
		sp.End()
	}()
	if bad() {
		return
	}
	sp.Note("ok")
}

// returnedSpan transfers ownership to the caller; not a leak here.
func returnedSpan() *span {
	return root().StartSpan("handoff")
}

// fileDeferClose is the canonical pattern for OS files.
func fileDeferClose(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	record(f != nil)
	return nil
}

// handOff passes the file to a callee whose summary closes it: the
// interprocedural ClosesParams fact makes the call count as cleanup.
func handOff(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	finish(f)
	return nil
}

// finish releases the handle for its callers.
func finish(f *os.File) {
	_ = f.Close()
}

// openForCaller returns the handle; the caller owns it now, and the
// err-guarded early return is the failure path with nothing to release.
func openForCaller(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// walClosed defers the log release before any other exit.
func walClosed(path string) error {
	lg, err := txn.OpenLog(path)
	if err != nil {
		return err
	}
	defer lg.Close()
	return ping()
}

// cursor keeps the iterator alive past this function on purpose.
type cursor struct{ it *Scan }

// keepIter stores the iterator in a longer-lived struct; ownership moved.
func keepIter(t *Table) *cursor {
	it := t.OpenScan()
	return &cursor{it: it}
}

// scanDeferClose is the canonical pattern for iterators.
func scanDeferClose(t *Table) int {
	it := t.OpenScan()
	defer it.Close()
	n := 0
	for it.Next() {
		n++
	}
	return n
}

// probeResolved settles the permit on every path: Failure on the error
// exit, Success once the probe call came back healthy.
func probeResolved(b *Breaker) error {
	if err := b.Allow(); err != nil {
		return err
	}
	if err := ping(); err != nil {
		b.Failure(err)
		return err
	}
	b.Success()
	return nil
}

// probeDeferredResolve resolves the permit in a deferred call.
func probeDeferredResolve(b *Breaker) error {
	if err := b.Allow(); err != nil {
		return err
	}
	defer b.Success()
	return ping()
}

// savepointMemberWritten closes (and therefore fsyncs) the member on every
// path.
func savepointMemberWritten(path string, data []byte) error {
	w, err := engine.newSavepointWriter(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		_ = w.Close()
		return errors.New("empty member")
	}
	return w.Close()
}
