// Fixture: the safe counterparts — channel work, foreign calls, and
// callbacks all happen outside the critical section. Must produce zero
// diagnostics.
package locksafe

import (
	"sync"

	"hana/internal/txn"
)

type safeWorker struct {
	mu     sync.Mutex
	ch     chan int
	action func()
	n      int
}

// sendOutsideLock copies state under the lock, releases, then sends.
func (w *safeWorker) sendOutsideLock() {
	w.mu.Lock()
	n := w.n
	w.mu.Unlock()
	w.ch <- n
}

// callAfterUnlock releases before crossing the package boundary.
func (w *safeWorker) callAfterUnlock() error {
	w.mu.Lock()
	w.n++
	w.mu.Unlock()
	return txn.Save()
}

// callLockFreeWhileHeld crosses the package boundary under the lock into a
// function that takes no lock, directly or through a callee.
func (w *safeWorker) callLockFreeWhileHeld() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n++
	return txn.Save()
}

// fireAfterUnlock snapshots the callback under the lock and runs it after.
func (w *safeWorker) fireAfterUnlock() {
	w.mu.Lock()
	cb := w.action
	w.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// deferredUnlock is the standard idiom: the deferred Unlock satisfies the
// must-unlock rule on every return path.
func (w *safeWorker) deferredUnlock() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n++
	return w.n
}

// sendAfterBranchLock takes and releases the lock inside one if arm; the
// send after the if runs with nothing held.
func (w *safeWorker) sendAfterBranchLock(bump bool) {
	if bump {
		w.mu.Lock()
		w.n++
		w.mu.Unlock()
	}
	w.ch <- 1
}

// The next two comments are lookalikes where the directive prefix runs
// into a longer word; they are not directives and must neither be reported
// as malformed nor recorded as suppressions.
//lint:ignored
//lint:ignorefoo
