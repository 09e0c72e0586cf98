package dist

import (
	"encoding/binary"
	"fmt"

	"hana/internal/exec"
	"hana/internal/value"
)

// Chunk is one exchange unit streamed from a worker back to the
// coordinator: the surviving rows of one scan morsel with their global scan
// sequences, a slice of a join fragment's output, or a whole fragment's
// aggregate partial. Chunks arrive in local sequence order within a worker's
// stream; the coordinator's k-way merge across shard streams restores the
// exact single-node order.
type Chunk struct {
	Shard  int
	Worker int
	// Seqs holds the global scan sequence of every row, ascending. For
	// join chunks the sequence is the probe row's, repeated per match.
	Seqs []int64
	// Rows carries scan or join output, aligned with Seqs, boxed from the
	// replica's column vectors for this chunk.
	Rows []value.Row
	// Partial carries an aggregate fragment's group table (no rows ship):
	// exec's accumulator as it stands, each group's First rewritten to the
	// smallest global scan sequence that contributed, so merged groups sort
	// by it into the serial first-seen group order.
	Partial *exec.AggPartial
	// Scanned counts the snapshot-visible rows the morsel examined before
	// filtering (executor statistics).
	Scanned int64
}

// chunkWireVersion 3: an aggregate state's sums are partial lists.
const chunkWireVersion = 3

// Encode renders the chunk in the wire format.
func (c *Chunk) Encode() []byte {
	buf := []byte{chunkWireVersion}
	buf = binary.AppendUvarint(buf, uint64(c.Shard))
	buf = binary.AppendUvarint(buf, uint64(c.Worker))
	buf = binary.AppendUvarint(buf, uint64(c.Scanned))
	buf = binary.AppendUvarint(buf, uint64(len(c.Seqs)))
	for _, s := range c.Seqs {
		buf = binary.AppendVarint(buf, s)
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.Rows)))
	for _, r := range c.Rows {
		buf = value.AppendRow(buf, r)
	}
	if c.Partial == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len(c.Partial.Groups)))
	for _, g := range c.Partial.Groups {
		buf = binary.AppendVarint(buf, g.First)
		buf = value.AppendRow(buf, g.Key)
		buf = binary.AppendUvarint(buf, uint64(len(g.States)))
		for _, st := range g.States {
			buf = exec.AppendAggState(buf, st)
		}
	}
	return buf
}

// DecodeChunk parses an encoded chunk.
func DecodeChunk(b []byte) (*Chunk, error) {
	d := value.NewCursor(b)
	if v := d.Byte(); v != chunkWireVersion {
		return nil, fmt.Errorf("chunk decode: unsupported version %d", v)
	}
	c := &Chunk{}
	c.Shard = int(d.Uvarint())
	c.Worker = int(d.Uvarint())
	c.Scanned = int64(d.Uvarint())
	ns := int(d.Uvarint())
	for i := 0; i < ns && d.Err() == nil; i++ {
		c.Seqs = append(c.Seqs, d.Varint())
	}
	nr := int(d.Uvarint())
	for i := 0; i < nr && d.Err() == nil; i++ {
		c.Rows = append(c.Rows, d.Row())
	}
	if d.Bool() {
		c.Partial = exec.NewAggPartial()
		ng := int(d.Uvarint())
		for i := 0; i < ng && d.Err() == nil; i++ {
			g := &exec.AggGroup{First: d.Varint(), Key: d.Row()}
			nst := int(d.Uvarint())
			for j := 0; j < nst && d.Err() == nil; j++ {
				st := exec.ReadAggState(&d)
				g.States = append(g.States, &st)
			}
			c.Partial.Append(g)
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("chunk decode: %w", err)
	}
	// The merge walks Rows by the Seqs cursor: a chunk that disagrees with
	// itself must not get that far.
	if len(c.Seqs) != len(c.Rows) {
		return nil, fmt.Errorf("chunk decode: %d sequences for %d rows", len(c.Seqs), len(c.Rows))
	}
	return c, nil
}
