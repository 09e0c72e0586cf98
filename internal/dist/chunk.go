package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"hana/internal/exec"
	"hana/internal/value"
)

// Chunk is one exchange unit streamed from a worker back to the
// coordinator: the surviving rows of one scan morsel or one probe morsel's
// join output, as a batch with the rows' global scan sequences, or a whole
// fragment's aggregate partial. Chunks arrive in local sequence order
// within a worker's stream; the coordinator's k-way merge across shard
// streams restores the exact single-node order.
type Chunk struct {
	Shard  int
	Worker int
	// Seqs holds the global scan sequence of every row, ascending. For
	// join chunks the sequence is the probe row's, repeated per match.
	Seqs []int64
	// Batch carries the rows as column vectors: a scan morsel's survivors
	// as the replica's vectors, a join's output as exec.HashJoin gathered
	// it. Its live rows (Batch.Len, through its selection) align with Seqs,
	// and the columns the fragment does not read stay pruned.
	Batch *value.Batch
	// Partial carries an aggregate fragment's group table (no rows ship):
	// exec's accumulator as it stands, each group's First rewritten to the
	// smallest global scan sequence that contributed, so merged groups sort
	// by it into the serial first-seen group order.
	Partial *exec.AggPartial
	// Scanned counts the snapshot-visible rows the morsel examined before
	// filtering (executor statistics).
	Scanned int64
}

// chunkWireVersion 5: every chunk's rows ship column by column, a join's
// too.
const chunkWireVersion = 5

// The payload form of one shipped batch column.
const (
	formInts       = 1 // n little-endian 8-byte integers
	formFloats     = 2 // n little-endian IEEE bits
	formDict       = 3 // the dictionary entries the rows use, then n uvarint codes
	formSortedDict = 4 // formDict over an ascending dictionary
	formStrs       = 5 // n strings
	formVals       = 6 // n wire values (the boxed escape hatch)
)

// Encode renders the chunk in the wire format:
//
//	[version][shard][worker][scanned][n seqs][varint seq]…[batch][partial]
//
// The batch and the partial are each a flag and, when set, the batch
// (appendBatch) or the aggregate group table.
func (c *Chunk) Encode() []byte {
	buf := []byte{chunkWireVersion}
	buf = binary.AppendUvarint(buf, uint64(c.Shard))
	buf = binary.AppendUvarint(buf, uint64(c.Worker))
	buf = binary.AppendUvarint(buf, uint64(c.Scanned))
	buf = binary.AppendUvarint(buf, uint64(len(c.Seqs)))
	for _, s := range c.Seqs {
		buf = binary.AppendVarint(buf, s)
	}
	if buf = appendBool(buf, c.Batch != nil); c.Batch != nil {
		buf = appendBatch(buf, c.Batch)
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

// appendBatch writes a batch's live rows column by column:
//
//	[n cols][kind]…[mask width][1 = shipped, 0 = pruned]…
//	per shipped column: [form][n rows][payload]
//
// Every form but formVals carries a null flag and, when set, the validity
// bitmap re-based to the live rows. Integer and float payloads ship as they
// are; a dictionary column ships its codes, renumbered over only the
// entries its live rows use.
func appendBatch(buf []byte, b *value.Batch) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b.Cols)))
	for c := range b.Cols {
		buf = append(buf, byte(b.Cols[c].Kind))
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.Cols)))
	for c := range b.Cols {
		buf = appendBool(buf, !b.Cols[c].Pruned)
	}
	n := b.Len()
	for c := range b.Cols {
		v := &b.Cols[c]
		if v.Pruned {
			continue
		}
		form := vecForm(v)
		buf = append(buf, form)
		buf = binary.AppendUvarint(buf, uint64(n))
		if form != formVals {
			buf = appendNulls(buf, v, b.Sel, n)
		}
		switch form {
		case formInts:
			buf = slices.Grow(buf, 8*n)
			for k := 0; k < n; k++ {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Ints[liveAt(b.Sel, k)]))
			}
		case formFloats:
			buf = slices.Grow(buf, 8*n)
			for k := 0; k < n; k++ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Floats[liveAt(b.Sel, k)]))
			}
		case formDict, formSortedDict:
			buf = appendDictCodes(buf, v, b.Sel, n)
		case formStrs:
			buf = binary.AppendUvarint(buf, uint64(n))
			for k := 0; k < n; k++ {
				buf = binary.AppendUvarint(buf, uint64(len(v.Strs[liveAt(b.Sel, k)])))
			}
			for k := 0; k < n; k++ {
				buf = append(buf, v.Strs[liveAt(b.Sel, k)]...)
			}
		case formVals:
			for k := 0; k < n; k++ {
				buf = value.AppendValue(buf, v.Vals[liveAt(b.Sel, k)])
			}
		}
	}
	return buf
}

// liveAt is the physical index of live row k under a selection (nil = all).
func liveAt(sel []int32, k int) int {
	if sel != nil {
		return int(sel[k])
	}
	return k
}

// vecForm picks the wire form of a column vector by its populated payload.
func vecForm(v *value.Vec) byte {
	switch {
	case v.Vals != nil:
		return formVals
	case v.Dict != nil && v.Sorted:
		return formSortedDict
	case v.Dict != nil:
		return formDict
	case v.Kind == value.KindVarchar:
		return formStrs
	case v.Kind == value.KindDouble:
		return formFloats
	default:
		return formInts
	}
}

// appendNulls writes the null flag and, if a live row is NULL, the bitmap
// of the live rows.
func appendNulls(buf []byte, v *value.Vec, sel []int32, n int) []byte {
	var words []uint64
	if v.Nulls != nil {
		for k := 0; k < n; k++ {
			if v.Null(liveAt(sel, k)) {
				if words == nil {
					words = make([]uint64, (n+63)/64)
				}
				words[k>>6] |= 1 << (uint(k) & 63)
			}
		}
	}
	if words == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// appendDictCodes writes the dictionary entries the live non-NULL rows use,
// in code order (so a sorted dictionary stays sorted), then each live row's
// code renumbered into that list. A NULL row writes code 0; a column whose
// live rows are all NULL ships a one-entry dictionary so that code exists.
func appendDictCodes(buf []byte, v *value.Vec, sel []int32, n int) []byte {
	used := make([]uint32, 0, n)
	for k := 0; k < n; k++ {
		if i := liveAt(sel, k); !v.Null(i) {
			used = append(used, v.Codes[i])
		}
	}
	slices.Sort(used)
	used = slices.Compact(used)
	if len(used) == 0 && n > 0 {
		buf = binary.AppendUvarint(buf, 1)
		buf = binary.AppendUvarint(buf, 0)
	} else {
		buf = binary.AppendUvarint(buf, uint64(len(used)))
		for _, code := range used {
			buf = binary.AppendUvarint(buf, uint64(len(v.Dict[code])))
		}
		for _, code := range used {
			buf = append(buf, v.Dict[code]...)
		}
	}
	for k := 0; k < n; k++ {
		var code int
		if i := liveAt(sel, k); !v.Null(i) {
			code, _ = slices.BinarySearch(used, v.Codes[i])
		}
		buf = binary.AppendUvarint(buf, uint64(code))
	}
	return buf
}

// DecodeChunk parses an encoded chunk. The bytes come from another node:
// every count is checked against the bytes left before anything is sized
// from it, and a batch must agree with itself — as many rows in every
// column as there are sequences, a mask as wide as the column list, codes
// inside their dictionary, payloads that fit their column's kind — so the
// merge and the coordinator's operators can index it without checks.
func DecodeChunk(b []byte) (*Chunk, error) {
	d := value.NewCursor(b)
	if v := d.Byte(); v != chunkWireVersion {
		return nil, fmt.Errorf("chunk decode: unsupported version %d", v)
	}
	c := &Chunk{}
	c.Shard = int(d.Uvarint())
	c.Worker = int(d.Uvarint())
	c.Scanned = int64(d.Uvarint())
	ns := readCount(&d, 1, "sequences")
	if ns > 0 {
		c.Seqs = make([]int64, ns)
		for i := range c.Seqs {
			c.Seqs[i] = d.Varint()
		}
	}
	rows := 0
	if d.Bool() {
		c.Batch = readBatch(&d, ns)
		rows = ns
	}
	if d.Bool() {
		c.Partial = &exec.AggPartial{}
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
	// The merge walks the rows by the Seqs cursor: a chunk that disagrees
	// with itself must not get that far.
	if len(c.Seqs) != rows {
		return nil, fmt.Errorf("chunk decode: %d sequences for %d rows", len(c.Seqs), rows)
	}
	return c, nil
}

// readCount reads a uvarint element count whose elements take at least
// minBytes each, failing the cursor when the bytes left cannot back it.
func readCount(d *value.Cursor, minBytes int, what string) int {
	n := d.Uvarint()
	if d.Err() == nil && n > uint64(d.Left()/minBytes) {
		d.Fail(fmt.Errorf("%d %s claimed, %d bytes left", n, what, d.Left()))
	}
	if d.Err() != nil {
		return 0
	}
	return int(n)
}

// readBatch reads what appendBatch wrote, rows live rows in every shipped
// column.
func readBatch(d *value.Cursor, rows int) *value.Batch {
	nc := readCount(d, 1, "columns")
	b := &value.Batch{Cols: make([]value.Vec, nc), N: rows}
	for c := range b.Cols {
		k := value.Kind(d.Byte())
		if k > value.KindTimestamp {
			d.Fail(fmt.Errorf("column %d: unknown kind %d", c, k))
		}
		b.Cols[c].Kind = k
	}
	if width := readCount(d, 1, "mask entries"); width != nc && d.Err() == nil {
		d.Fail(fmt.Errorf("a needed mask of %d columns over %d columns", width, nc))
	}
	for c := 0; c < nc && d.Err() == nil; c++ {
		b.Cols[c].Pruned = !d.Bool()
	}
	for c := 0; c < nc && d.Err() == nil; c++ {
		if !b.Cols[c].Pruned {
			readVec(d, &b.Cols[c], rows)
		}
	}
	return b
}

// readVec reads one shipped column of n rows into v, whose Kind is set.
func readVec(d *value.Cursor, v *value.Vec, n int) {
	form := d.Byte()
	if got := d.Uvarint(); got != uint64(n) && d.Err() == nil {
		d.Fail(fmt.Errorf("%d rows for %d sequences", got, n))
	}
	if d.Err() != nil {
		return
	}
	if !formFits(form, v.Kind) {
		d.Fail(fmt.Errorf("form %d does not carry %s", form, v.Kind))
		return
	}
	if form != formVals && d.Bool() {
		v.Nulls = readWords(d, n)
	}
	switch form {
	case formInts:
		if raw := d.Bytes(8 * n); raw != nil {
			v.Ints = make([]int64, n)
			for i := range v.Ints {
				v.Ints[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
	case formFloats:
		if raw := d.Bytes(8 * n); raw != nil {
			v.Floats = make([]float64, n)
			for i := range v.Floats {
				v.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
	case formDict, formSortedDict:
		v.Dict = readStringBlock(d)
		v.Sorted = form == formSortedDict
		for i := 1; v.Sorted && i < len(v.Dict); i++ {
			if v.Dict[i-1] >= v.Dict[i] {
				d.Fail(fmt.Errorf("sorted dictionary entry %d is not above entry %d", i, i-1))
				return
			}
		}
		if n > d.Left() {
			d.Fail(fmt.Errorf("%d codes claimed, %d bytes left", n, d.Left()))
			return
		}
		v.Codes = make([]uint32, n)
		for i := range v.Codes {
			code := d.Uvarint()
			if code >= uint64(len(v.Dict)) && d.Err() == nil {
				d.Fail(fmt.Errorf("code %d outside a dictionary of %d", code, len(v.Dict)))
			}
			v.Codes[i] = uint32(code)
		}
	case formStrs:
		if v.Strs = readStringBlock(d); len(v.Strs) != n && d.Err() == nil {
			d.Fail(fmt.Errorf("%d strings for %d rows", len(v.Strs), n))
		}
	case formVals:
		if n > d.Left() {
			d.Fail(fmt.Errorf("%d values claimed, %d bytes left", n, d.Left()))
			return
		}
		v.Vals = make([]value.Value, n)
		for i := range v.Vals {
			v.Vals[i] = d.Value()
		}
	}
}

// formFits reports whether a payload form can carry a column of the kind:
// the merge and the predicate kernels read the payload the kind names.
func formFits(form byte, k value.Kind) bool {
	switch form {
	case formInts:
		return k == value.KindBool || k == value.KindInt || k == value.KindDate || k == value.KindTimestamp
	case formFloats:
		return k == value.KindDouble
	case formDict, formSortedDict, formStrs:
		return k == value.KindVarchar
	case formVals:
		return true
	}
	return false
}

// readWords reads the little-endian words of an n-bit bitmap; bits past n
// are cleared, so a decoded bitmap re-encodes to the same bytes.
func readWords(d *value.Cursor, n int) []uint64 {
	nw := (n + 63) / 64
	raw := d.Bytes(8 * nw)
	if raw == nil {
		return nil
	}
	words := make([]uint64, nw)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	if tail := uint(n) & 63; tail != 0 {
		words[nw-1] &= 1<<tail - 1
	}
	return words
}

// readStringBlock reads a count, that many lengths and the concatenated
// bytes: one allocation for the whole block, each string a substring.
func readStringBlock(d *value.Cursor) []string {
	n := readCount(d, 1, "strings")
	if n == 0 {
		return nil
	}
	ends := make([]int, n)
	total := 0
	for i := range ends {
		l := d.Uvarint()
		if d.Err() != nil || l > uint64(d.Left()-total) {
			d.Fail(fmt.Errorf("string %d of %d bytes, %d left", i, l, d.Left()-total))
			return nil
		}
		total += int(l)
		ends[i] = total
	}
	raw := d.Bytes(total)
	if raw == nil {
		return nil
	}
	blob := string(raw)
	out := make([]string, n)
	lo := 0
	for i, hi := range ends {
		out[i] = blob[lo:hi]
		lo = hi
	}
	return out
}
