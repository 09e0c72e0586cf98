// Package txn is the fixture stand-in for hana/internal/txn: it provides
// the cross-package facts the analyzers consult — a function that takes a
// lock through its callee and one that takes none (so locksafe tells a
// lock-ordering hazard from a harmless call) and exported error-returning
// functions (so errdrop flags discarded calls to them).
package txn

import "sync"

// Coordinator holds a lock so the package counts as lock-taking.
type Coordinator struct {
	mu sync.Mutex
	n  int
}

// Save is an exported error-returning function for cross-package errdrop.
// It takes no lock, so locksafe allows a call to it under one.
func Save() error { return nil }

// Journal's lock is unranked, so nesting it under a fixture lock is
// locksafe's finding alone.
type Journal struct {
	mu sync.Mutex
	n  int
}

func (j *Journal) bump() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.n++
}

// Commit takes the journal's lock through bump: a call to it under another
// lock is a lock-ordering hazard.
func Commit(j *Journal) error {
	j.bump()
	return nil
}

// Tick exercises the mutex so it is not dead code.
func (c *Coordinator) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Log is the WAL-handle stand-in for resleak's must-close table.
type Log struct{}

// Close releases the log.
func (l *Log) Close() error { return nil }

// OpenLog opens the write-ahead log at path.
func OpenLog(path string) (*Log, error) { return &Log{}, nil }
