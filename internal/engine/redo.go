package engine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"hana/internal/catalog"
	"hana/internal/txn"
	"hana/internal/value"
)

// Redo logging: every durable mutation of the engine's stores appends one
// typed RecData record to the WAL so crash recovery can rebuild the
// in-memory stores from the last savepoint plus the log suffix. Records are
// written *before* the store mutation inside the same critical section that
// applies it (write-ahead), and only once the write rule accepted it: only
// valid writes are logged, and replay applies them without checking again.
//
// The record note is a compact binary frame:
//
//	[1B op][uvarint partition][uvarint rowID][uvarint len(table)][table][payload]
//
// with the payload depending on op: wire-encoded row for inserts, catalog
// JSON for DDL, empty for deletes.
//
// Every placement logs the same records. Ops 3 and 4 once logged
// extended-storage writes apart from the rest; they are retired and decode
// as unknown.
const (
	redoIns       byte = 1 // insert under Record.TID; payload = wire row
	redoDel       byte = 2 // MVCC delete stamp under Record.TID
	redoInsC      byte = 5 // bulk-loaded row, committed at Record.CID
	redoDDLCreate byte = 6 // payload = catalog.TableMeta JSON
	redoDDLDrop   byte = 7
	redoDDLAlter  byte = 8 // payload = []value.Column JSON (added columns)
)

// redoRec is one decoded redo record.
type redoRec struct {
	op      byte
	part    int
	rowID   int
	table   string
	payload []byte

	tid uint64 // from the Record envelope
	cid uint64
	lsn uint64
}

func encodeRedoNote(op byte, part, rowID int, table string, payload []byte) string {
	buf := make([]byte, 0, 1+3*binary.MaxVarintLen64+len(table)+len(payload))
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, uint64(part))
	buf = binary.AppendUvarint(buf, uint64(rowID))
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	buf = append(buf, table...)
	buf = append(buf, payload...)
	return string(buf)
}

func decodeRedoNote(note string) (redoRec, error) {
	b := []byte(note)
	if len(b) < 4 {
		return redoRec{}, fmt.Errorf("redo: short note (%d bytes)", len(b))
	}
	d := value.NewCursor(b)
	r := redoRec{op: d.Byte()}
	switch r.op {
	case redoIns, redoDel, redoInsC, redoDDLCreate, redoDDLDrop, redoDDLAlter:
	default:
		return redoRec{}, fmt.Errorf("redo: unknown op %d", r.op)
	}
	r.part = int(d.Uvarint())
	r.rowID = int(d.Uvarint())
	r.table = d.Str()
	if err := d.Err(); err != nil {
		return redoRec{}, fmt.Errorf("redo: %w", err)
	}
	r.payload = b[d.Off():]
	return r, nil
}

// logRedo appends one redo record; a nil WAL disables redo logging.
func (e *Engine) logRedo(tid, cid uint64, op byte, part, rowID int, table string, payload []byte) error {
	if e.wal == nil {
		return nil
	}
	return e.wal.Append(txn.Record{
		Type: txn.RecData,
		TID:  tid,
		CID:  cid,
		Note: encodeRedoNote(op, part, rowID, table, payload),
	})
}

func (e *Engine) logRedoRow(tid, cid uint64, op byte, part, rowID int, table string, row value.Row) error {
	if e.wal == nil {
		return nil
	}
	var payload []byte
	if row != nil {
		payload = value.AppendRow(nil, row)
	}
	return e.logRedo(tid, cid, op, part, rowID, table, payload)
}

// logRedoDDL appends a DDL redo record (tid 0: DDL is autonomous).
func (e *Engine) logRedoDDL(op byte, table string, payload []byte) error {
	return e.logRedo(0, 0, op, 0, 0, table, payload)
}

func marshalTableMeta(meta *catalog.TableMeta) ([]byte, error) {
	// Optimizer statistics are advisory and rebuilt by ANALYZE; persisting
	// them would bloat every create record.
	clean := *meta
	clean.Stats = catalog.TableStats{}
	return json.Marshal(&clean)
}

// redoOpName names a redo op for the wal dump tool and recovery reports.
func redoOpName(op byte) string {
	switch op {
	case redoIns:
		return "INS"
	case redoDel:
		return "DEL"
	case redoInsC:
		return "INSC"
	case redoDDLCreate:
		return "DDL-CREATE"
	case redoDDLDrop:
		return "DDL-DROP"
	case redoDDLAlter:
		return "DDL-ALTER"
	}
	return fmt.Sprintf("OP%d", op)
}

// FormatRedoNote renders a RecData note for human consumption (platformctl
// wal dump). Undecodable notes render as a length marker rather than an
// error: the dump tool must keep walking the log.
func FormatRedoNote(note string) string {
	r, err := decodeRedoNote(note)
	if err != nil {
		return fmt.Sprintf("<opaque %d bytes>", len(note))
	}
	switch r.op {
	case redoDDLCreate, redoDDLDrop, redoDDLAlter:
		return fmt.Sprintf("%s table=%s payload=%dB", redoOpName(r.op), r.table, len(r.payload))
	case redoDel:
		return fmt.Sprintf("%s table=%s part=%d row=%d", redoOpName(r.op), r.table, r.part, r.rowID)
	default:
		row, _, err := value.DecodeRow(r.payload)
		if err != nil {
			return fmt.Sprintf("%s table=%s part=%d row=%d <bad payload>", redoOpName(r.op), r.table, r.part, r.rowID)
		}
		return fmt.Sprintf("%s table=%s part=%d row=%d vals=%v", redoOpName(r.op), r.table, r.part, r.rowID, row)
	}
}
