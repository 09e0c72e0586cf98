// Fixture: every annotated-field access that guardedby must accept —
// straight-line lock/unlock, deferred unlock, RLock reads, branch-local
// arms, closures inheriting the held set, interprocedurally seeded
// helpers, and the three ownership exemptions (constructor result type,
// freshly constructed locals, //hana:owned functions).
package guardedby

import "sync"

// Ledger is the well-behaved owner type.
type Ledger struct {
	mu sync.RWMutex

	// hana:guardedby mu
	balance int64
	entries []string // hana:guardedby mu
}

// NewLedger is a constructor: it returns the owner type, so its bare
// writes are ownership, not races.
func NewLedger() *Ledger {
	l := &Ledger{}
	l.balance = 0
	l.entries = nil
	return l
}

// Deposit holds the exclusive lock across both writes.
func (l *Ledger) Deposit(n int64, note string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.balance += n
	l.entries = append(l.entries, note)
}

// Balance reads under RLock.
func (l *Ledger) Balance() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.balance
}

// replay is only ever called with l.mu held (see Reset), so the
// interprocedural entry seed blesses its bare writes.
func (l *Ledger) replay(notes []string) {
	for _, n := range notes {
		l.entries = append(l.entries, n)
		l.balance++
	}
}

// Reset demonstrates branch-local arms and the seeded helper: both the
// if and the else run under the lock, as does the closure.
func (l *Ledger) Reset(hard bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if hard {
		l.balance = 0
	} else {
		l.entries = l.entries[:0]
	}
	flush := func() { l.balance = 0 }
	flush()
	l.replay(nil)
}

// scratch builds a fresh Ledger in a local: bare access to an owned value
// is constructor-time initialization, not a race.
func scratch(notes []string) *Ledger {
	tmp := &Ledger{}
	tmp.entries = notes
	tmp.balance = int64(len(notes))
	return tmp
}

// hana:owned called once from main before any goroutine starts
func seed(l *Ledger) {
	l.balance = 42
	l.entries = []string{"seed"}
}

// Settle holds l.mu across a twelve-link chain of helpers reached from
// nowhere else; the last link writes. The entry fixpoint learns one link
// per round, so it must run until the sets stop growing.
func (l *Ledger) Settle() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.settle1()
}

func (l *Ledger) settle1()  { l.settle2() }
func (l *Ledger) settle2()  { l.settle3() }
func (l *Ledger) settle3()  { l.settle4() }
func (l *Ledger) settle4()  { l.settle5() }
func (l *Ledger) settle5()  { l.settle6() }
func (l *Ledger) settle6()  { l.settle7() }
func (l *Ledger) settle7()  { l.settle8() }
func (l *Ledger) settle8()  { l.settle9() }
func (l *Ledger) settle9()  { l.settle10() }
func (l *Ledger) settle10() { l.settle11() }
func (l *Ledger) settle11() { l.settle12() }
func (l *Ledger) settle12() { l.balance = 0 }
