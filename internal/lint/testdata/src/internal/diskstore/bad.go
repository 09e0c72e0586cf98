// Fixture: discarded errors on storage paths — bare calls, deferred Close,
// blank assignment, and a cross-package drop of a monitored function. Also
// exercises the //lint:ignore directive: a reasoned directive suppresses,
// a reasonless one or one naming no analyzer is itself a finding.
package diskstore

import (
	"os"

	"hana/internal/txn"
)

type wal struct {
	f *os.File
}

func (w *wal) flush() error {
	return w.f.Sync()
}

// closeQuietly drops the Close error — the classic lost-write bug.
func (w *wal) closeQuietly() {
	w.f.Close() // want errdrop
}

// commitThenForget discards a deferred Close and a local error-returning
// call.
func (w *wal) commitThenForget() {
	defer w.f.Close() // want errdrop
	w.flush()         // want errdrop
}

// saveRemote discards an error from the monitored txn package.
func saveRemote() {
	txn.Save() // want errdrop
}

// blankAssign throws the error away explicitly without a reason.
func (w *wal) blankAssign() {
	_ = w.flush() // want errdrop
}

// dropWithReason documents a deliberate drop; the directive suppresses it.
func (w *wal) dropWithReason() {
	//lint:ignore errdrop fixture: demonstrates a reasoned suppression
	_ = w.flush()
}

// dropMalformed carries a directive with no reason: the directive is
// reported under "lint" and does not suppress the drop beneath it.
func (w *wal) dropMalformed() {
	// want +1 lint
	//lint:ignore errdrop
	_ = w.flush() // want errdrop
}

// flushMisspelled carries a directive naming an analyzer that does not
// exist: a typo (or a leftover from a deleted analyzer) is reported under
// "lint" even though the line beneath it is clean.
func (w *wal) flushMisspelled() error {
	// want +1 lint
	//lint:ignore errdorp fixture: a misspelled analyzer name
	return w.flush()
}
