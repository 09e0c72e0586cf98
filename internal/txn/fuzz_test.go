package txn

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The WAL is bytes from disk after a crash: on arbitrary input scanRecords
// never panics, stops at a byte offset inside the input, hands out records
// in strictly increasing LSN order, and the prefix it accepts is exactly the
// magic followed by the frames of the records it returned.

func FuzzScanRecords(f *testing.F) {
	wal := []byte(walMagic)
	wal = append(wal, encodeRecord(1, Record{Type: RecBegin, TID: 7})...)
	second := len(wal)
	wal = append(wal, encodeRecord(2, Record{Type: RecData, TID: 7, Note: "redo payload"})...)
	wal = append(wal, encodeRecord(3, Record{Type: RecCommit, TID: 7, CID: 9})...)
	for cut := 0; cut <= len(wal); cut++ {
		f.Add(wal[:cut])
	}
	flipped := bytes.Clone(wal)
	flipped[second] ^= 0xff // the second record's CRC
	f.Add(flipped)
	badType := bytes.Clone(wal)
	badType[second+12] = byte(recMaxType + 1)
	f.Add(badType)
	// A header claiming the largest plausible note, with none of it present.
	huge := bytes.Clone(wal[:second])
	hdr := encodeRecord(2, Record{Type: RecData, TID: 7})
	binary.LittleEndian.PutUint32(hdr[29:], maxNoteLen)
	f.Add(append(huge, hdr...))
	// Data records carrying the engine's retired redo ops 3 and 4: the notes
	// are opaque here and scan like any other.
	for _, op := range []byte{3, 4} {
		retired := encodeRecord(2, Record{Type: RecData, TID: 7, Note: string([]byte{op, 0, 0, 1, 't'})})
		f.Add(append(bytes.Clone(wal[:second]), retired...))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		var recs []Record
		stats, err := scanRecords(bytes.NewReader(in), func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			t.Fatalf("scan failed instead of stopping at the torn tail: %v", err)
		}
		if stats.TornOff < 0 || stats.TornOff > int64(len(in)) {
			t.Fatalf("TornOff %d outside the %d-byte input", stats.TornOff, len(in))
		}
		if !stats.TornTail && stats.TornOff != int64(len(in)) {
			t.Fatalf("clean scan stopped at %d of %d bytes", stats.TornOff, len(in))
		}
		if stats.Records != len(recs) {
			t.Fatalf("stats count %d records, fn saw %d", stats.Records, len(recs))
		}
		var prev uint64
		for _, r := range recs {
			if r.LSN <= prev {
				t.Fatalf("LSN %d after %d", r.LSN, prev)
			}
			prev = r.LSN
		}
		if !bytes.HasPrefix(in, []byte(walMagic)) {
			if stats.TornOff != 0 || len(recs) != 0 {
				t.Fatalf("no magic, yet %d records up to offset %d", len(recs), stats.TornOff)
			}
			return
		}
		again := []byte(walMagic)
		for _, r := range recs {
			again = append(again, encodeRecord(r.LSN, r)...)
		}
		if !bytes.Equal(again, in[:stats.TornOff]) {
			t.Fatalf("re-encoded records differ from the accepted prefix in[:%d]", stats.TornOff)
		}
	})
}
