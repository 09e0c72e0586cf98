// Fixture: every locksafe hazard class. `// want <analyzer>` markers mark
// the exact lines the analyzer must report; `// want +N <analyzer>` marks a
// line N below the comment.
package locksafe

import (
	"sync"

	"hana/internal/txn"
)

type worker struct {
	mu     sync.Mutex
	ch     chan int
	action func()
	n      int
}

type failer struct{}

func (failer) Fatal(args ...any) {}

// sendWhileHeld blocks on a channel send with the mutex held: if the
// reader needs the same lock, both sides wedge forever.
func (w *worker) sendWhileHeld() {
	w.mu.Lock()
	w.ch <- w.n // want locksafe
	w.mu.Unlock()
}

// recvWhileHeld is the receive-side variant of the same deadlock.
func (w *worker) recvWhileHeld() int {
	w.mu.Lock()
	v := <-w.ch // want locksafe
	w.mu.Unlock()
	return v
}

// selectWhileHeld can park on the select with the lock held.
func (w *worker) selectWhileHeld() {
	w.mu.Lock()
	defer w.mu.Unlock()
	select { // want locksafe
	case v := <-w.ch:
		w.n = v
	}
}

// fatalWhileHeld: Fatal runs runtime.Goexit, so the deferred code of OTHER
// frames never runs and the lock leaks into the rest of the test binary.
func (w *worker) fatalWhileHeld(t failer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < 0 {
		t.Fatal("negative count") // want locksafe
	}
}

// callForeignWhileHeld calls into another internal package whose callee
// takes a lock one call further down — a lock-ordering hazard.
func (w *worker) callForeignWhileHeld(j *txn.Journal) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return txn.Commit(j) // want locksafe
}

// fireWhileHeld invokes a func-valued field under the lock; the callback
// can re-enter this worker and self-deadlock (sync.Mutex is not reentrant).
func (w *worker) fireWhileHeld() {
	w.mu.Lock()
	w.action() // want locksafe
	w.mu.Unlock()
}

// leak never unlocks on any path.
func (w *worker) leak() {
	w.mu.Lock() // want locksafe
	w.n++
}

// sendAfterEarlyReturn unlocks only on the early-return arm: past the if
// the lock is still held, and the send can park with it.
func (w *worker) sendAfterEarlyReturn(done bool) {
	w.mu.Lock()
	if done {
		w.mu.Unlock()
		return
	}
	w.ch <- w.n // want locksafe
	w.mu.Unlock()
}

// leakInBranch never unlocks; the finding names the first Lock, which
// only one arm takes.
func (w *worker) leakInBranch(up bool) {
	if up {
		w.mu.Lock() // want locksafe
		w.n++
		return
	}
	w.mu.Lock()
	w.n--
}

type pair struct {
	amu, bmu sync.Mutex
	ch       chan int
}

// sendHoldingBoth blocks with two mutexes held; the message names both,
// in order.
func (p *pair) sendHoldingBoth() {
	p.amu.Lock()
	p.bmu.Lock()
	p.ch <- 1 // want locksafe
	p.bmu.Unlock()
	p.amu.Unlock()
}
