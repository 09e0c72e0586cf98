package esp

import (
	"fmt"
	"strings"
	"sync"

	"hana/internal/faults"
	"hana/internal/hdfs"
	"hana/internal/value"
)

// HDFSArchiveSink pushes raw events into HDFS — the paper's dedicated
// adapter ("the raw data may be pushed into an existing HDFS using a
// dedicated adapter such that it is possible to perform a detailed offline
// analysis of the raw data"). Rows are buffered and rotated into
// tab-separated part files under a directory, ready for map-reduce input.
//
// Delivery contract: Consume always absorbs the whole batch into the
// buffer before any flush, so the caller never needs to resend rows and a
// retried flush can never duplicate them (part files are written under a
// stable name that is only advanced after a successful write, and
// WriteFile replaces). A transient rotate-flush failure spills — the rows
// stay buffered, the stream is not blocked — and the next rotation, an
// explicit Flush, or Close retries the write.
type HDFSArchiveSink struct {
	mu      sync.Mutex
	cluster *hdfs.Cluster
	dir     string
	rotate  int // rows per part file
	// hana:guardedby mu
	buf strings.Builder
	// hana:guardedby mu
	buffered int
	// hana:guardedby mu
	part int
	// hana:guardedby mu
	written int64
	// hana:guardedby mu
	spills int64
	retry  faults.RetryPolicy
	inj    *faults.Injector
}

// NewHDFSArchiveSink creates a sink writing under dir, rotating files
// every rotateRows rows (default 10000).
func NewHDFSArchiveSink(cluster *hdfs.Cluster, dir string, rotateRows int) *HDFSArchiveSink {
	if rotateRows <= 0 {
		rotateRows = 10000
	}
	return &HDFSArchiveSink{cluster: cluster, dir: dir, rotate: rotateRows}
}

// SetRetryPolicy configures flush retries (zero value = faults defaults).
func (s *HDFSArchiveSink) SetRetryPolicy(p faults.RetryPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retry = p
}

// SetInjector routes part-file flushes through a fault injector at the
// "esp.flush" site (the cluster's "hdfs.write" site fires independently).
func (s *HDFSArchiveSink) SetInjector(inj *faults.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = inj
}

// Consume implements Sink. The batch is fully absorbed before any flush is
// attempted; see the type comment for the delivery contract.
func (s *HDFSArchiveSink) Consume(rows []value.Row, _ *value.Schema) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				s.buf.WriteByte('\t')
			}
			if v.IsNull() {
				s.buf.WriteString(`\N`)
			} else {
				s.buf.WriteString(strings.NewReplacer("\t", " ", "\n", " ").Replace(v.String()))
			}
		}
		s.buf.WriteByte('\n')
		s.buffered++
		s.written++
		if s.buffered >= s.rotate {
			if err := s.flushLocked(); err != nil {
				if faults.IsTransient(err) {
					// Spill: keep the rows buffered and keep the stream
					// moving; a later rotation or Flush retries the part.
					s.spills++
					continue
				}
				return err
			}
		}
	}
	return nil
}

// Flush forces the current buffer into a part file.
func (s *HDFSArchiveSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

// Close flushes any buffered rows and detaches the sink from new writes.
// It is the stream-teardown hook: without it, rows below the rotation
// threshold would be stranded in memory.
func (s *HDFSArchiveSink) Close() error {
	return s.Flush()
}

func (s *HDFSArchiveSink) flushLocked() error {
	if s.buffered == 0 {
		return nil
	}
	// The part number only advances after a successful write, so every
	// retry rewrites the same name and WriteFile's replace semantics make
	// the flush idempotent.
	name := fmt.Sprintf("%s/part-%05d", s.dir, s.part)
	data := []byte(s.buf.String())
	err := s.retry.Do("esp.flush", func() error {
		if err := s.inj.Check("esp.flush"); err != nil {
			return err
		}
		return s.cluster.WriteFile(name, data)
	})
	if err != nil {
		return err
	}
	s.part++
	s.buffered = 0
	s.buf.Reset()
	return nil
}

// RowsWritten reports the total rows accepted.
func (s *HDFSArchiveSink) RowsWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

// Pending reports rows absorbed but not yet flushed to HDFS.
func (s *HDFSArchiveSink) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffered
}

// Spills counts rotate-flushes that failed transiently and were deferred.
func (s *HDFSArchiveSink) Spills() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spills
}
