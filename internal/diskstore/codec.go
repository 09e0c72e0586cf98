// Package diskstore implements the disk-based columnar extended storage —
// the platform's substitute for the Sybase IQ storage engine that SAP HANA
// integrates as "extended storage" (§3.1 of the paper). Tables are split
// into fixed-size row chunks; each column chunk is compressed (dictionary or
// frame-of-reference encoding) and written to its own page file. Per-chunk
// zone maps (min/max) let scans skip chunks. A chunk decodes once into the
// typed vector the column store hands up (integers, floats, or dictionary
// codes), which a small LRU buffer cache keeps, and a scan's batches slice
// those vectors, so cold predicates run the same kernels as hot ones. Tables
// are append-only: no row is ever removed, and which rows live is the
// engine's MVCC layer's business.
package diskstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"hana/internal/value"
)

// Chunk encodings.
const (
	encRaw  byte = 0 // values verbatim
	encDict byte = 1 // dictionary + fixed-width codes
	encFOR  byte = 2 // frame-of-reference packed ints
)

// encodeChunk serializes one column chunk choosing the cheapest encoding.
// Layout: kind byte, count uvarint, null bitmap, encoding byte, payload.
func encodeChunk(kind value.Kind, vals []value.Value) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(byte(kind))
	writeUvarint(&buf, uint64(len(vals)))
	// Null bitmap.
	nullWords := make([]uint64, (len(vals)+63)/64)
	for i, v := range vals {
		if v.IsNull() {
			nullWords[i/64] |= 1 << (i % 64)
		}
	}
	for _, w := range nullWords {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		buf.Write(b[:])
	}
	switch kind {
	case value.KindVarchar:
		encodeStringChunk(&buf, vals)
	case value.KindDouble:
		encodeDoubleChunk(&buf, vals)
	default:
		encodeIntChunk(&buf, vals)
	}
	return buf.Bytes(), nil
}

func encodeStringChunk(buf *bytes.Buffer, vals []value.Value) {
	// Build dictionary.
	index := map[string]uint64{}
	var dict []string
	codes := make([]uint64, len(vals))
	for i, v := range vals {
		if v.IsNull() {
			continue
		}
		c, ok := index[v.S]
		if !ok {
			c = uint64(len(dict))
			index[v.S] = c
			dict = append(dict, v.S)
		}
		codes[i] = c
	}
	buf.WriteByte(encDict)
	writeUvarint(buf, uint64(len(dict)))
	for _, s := range dict {
		writeUvarint(buf, uint64(len(s)))
		buf.WriteString(s)
	}
	writePacked(buf, codes, uint64(len(dict)))
}

func encodeDoubleChunk(buf *bytes.Buffer, vals []value.Value) {
	buf.WriteByte(encRaw)
	for _, v := range vals {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
		buf.Write(b[:])
	}
}

func encodeIntChunk(buf *bytes.Buffer, vals []value.Value) {
	var minV, maxV int64
	first := true
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		if first {
			minV, maxV = v.I, v.I
			first = false
			continue
		}
		if v.I < minV {
			minV = v.I
		}
		if v.I > maxV {
			maxV = v.I
		}
	}
	buf.WriteByte(encFOR)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(minV))
	buf.Write(b[:])
	codes := make([]uint64, len(vals))
	for i, v := range vals {
		if !v.IsNull() {
			codes[i] = uint64(v.I - minV)
		}
	}
	var rng uint64
	if !first {
		rng = uint64(maxV - minV)
	}
	writePacked(buf, codes, rng)
}

// decodeChunk is the inverse of encodeChunk. It returns the chunk as the
// typed vector the column store hands up, and its row count: a FOR chunk as
// Ints, a raw DOUBLE chunk as Floats (bits kept), a dictionary VARCHAR chunk
// as Codes against the chunk's own dictionary, which is not sorted. The null
// bitmap becomes Nulls, nil when no row is NULL, and a NULL row's code is 0.
// The bytes come from disk, so nothing in them is trusted: every count is
// bounded by the bytes that remain before anything is allocated for it,
// every read is a full read, and a dictionary code must name a dictionary
// entry.
func decodeChunk(data []byte) (*value.Vec, int, error) {
	r := bytes.NewReader(data)
	kindB, err := r.ReadByte()
	if err != nil {
		return nil, 0, fmt.Errorf("chunk header: %w", err)
	}
	v := &value.Vec{Kind: value.Kind(kindB)}
	n64, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, fmt.Errorf("chunk count: %w", err)
	}
	// Every row owns one bit of the null bitmap that follows.
	if n64 > 8*uint64(r.Len()) {
		return nil, 0, fmt.Errorf("chunk count %d exceeds the %d bytes that remain", n64, r.Len())
	}
	n := int(n64)
	nulls, err := readWords(r, (n+63)/64)
	if err != nil {
		return nil, 0, fmt.Errorf("null bitmap: %w", err)
	}
	if slices.ContainsFunc(nulls, func(w uint64) bool { return w != 0 }) {
		v.Nulls = nulls
	}
	enc, err := r.ReadByte()
	if err != nil {
		return nil, 0, fmt.Errorf("chunk encoding: %w", err)
	}
	switch {
	case v.Kind == value.KindVarchar && enc == encDict:
		dn, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, fmt.Errorf("dictionary count: %w", err)
		}
		// Every entry owns at least its length byte.
		if dn > uint64(r.Len()) {
			return nil, 0, fmt.Errorf("dictionary count %d exceeds the %d bytes that remain", dn, r.Len())
		}
		v.Dict = make([]string, dn)
		// Scratch read buffer shared across dictionary entries; the string
		// conversion copies, so reuse is safe.
		var sb []byte
		for i := range v.Dict {
			sl, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, 0, fmt.Errorf("dictionary entry %d: %w", i, err)
			}
			if sl > uint64(r.Len()) {
				return nil, 0, fmt.Errorf("dictionary entry %d: length %d exceeds the %d bytes that remain", i, sl, r.Len())
			}
			if uint64(len(sb)) < sl {
				sb = make([]byte, sl)
			}
			buf := sb[:sl]
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, 0, fmt.Errorf("dictionary entry %d: %w", i, err)
			}
			v.Dict[i] = string(buf)
		}
		codes, err := readPacked(r, n)
		if err != nil {
			return nil, 0, err
		}
		v.Codes = make([]uint32, n)
		for i, c := range codes {
			switch {
			case v.Null(i):
			case c >= dn:
				return nil, 0, fmt.Errorf("row %d: dictionary code %d out of range (%d entries)", i, c, dn)
			default:
				v.Codes[i] = uint32(c)
			}
		}
		if dn == 0 && n > 0 { // every row is NULL: give code 0 an entry
			v.Dict = nullDict
		}
	case v.Kind == value.KindDouble && enc == encRaw:
		bits, err := readWords(r, n)
		if err != nil {
			return nil, 0, fmt.Errorf("double payload: %w", err)
		}
		v.Floats = make([]float64, n)
		for i, b := range bits {
			v.Floats[i] = math.Float64frombits(b)
		}
	case enc == encFOR && (v.Kind == value.KindBool || v.Kind == value.KindInt || v.Kind == value.KindDate || v.Kind == value.KindTimestamp):
		frame, err := readWords(r, 1)
		if err != nil {
			return nil, 0, fmt.Errorf("frame of reference: %w", err)
		}
		codes, err := readPacked(r, n)
		if err != nil {
			return nil, 0, err
		}
		v.Ints = make([]int64, n)
		for i, c := range codes {
			v.Ints[i] = int64(frame[0]) + int64(c)
		}
	default:
		return nil, 0, fmt.Errorf("unknown chunk encoding kind=%d enc=%d", v.Kind, enc)
	}
	return v, n, nil
}

// nullDict is the dictionary of a VARCHAR chunk whose rows are all NULL:
// shared by every such chunk, and never written.
var nullDict = []string{""}

// readWords reads n little-endian 64-bit words, refusing a count the
// remaining bytes cannot hold before it allocates for it.
func readWords(r *bytes.Reader, n int) ([]uint64, error) {
	if n > r.Len()/8 {
		return nil, fmt.Errorf("%d words exceed the %d bytes that remain: %w", n, r.Len(), io.ErrUnexpectedEOF)
	}
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return words, nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	buf.Write(b[:n])
}

// writePacked writes width byte + bit-packed codes.
func writePacked(buf *bytes.Buffer, codes []uint64, maxCode uint64) {
	width := 0
	for m := maxCode; m > 0; m >>= 1 {
		width++
	}
	buf.WriteByte(byte(width))
	if width == 0 {
		return
	}
	words := make([]uint64, (len(codes)*width+63)/64)
	for i, c := range codes {
		bitPos := i * width
		w, off := bitPos/64, bitPos%64
		words[w] |= c << off
		if off+width > 64 {
			words[w+1] |= c >> (64 - off)
		}
	}
	for _, w := range words {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		buf.Write(b[:])
	}
}

// readPacked reads what writePacked wrote: a width byte, then n codes of
// that many bits each.
func readPacked(r *bytes.Reader, n int) ([]uint64, error) {
	widthB, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("packed width: %w", err)
	}
	width := int(widthB)
	if width > 64 {
		return nil, fmt.Errorf("packed width %d exceeds 64 bits", width)
	}
	codes := make([]uint64, n)
	if width == 0 {
		return codes, nil
	}
	words, err := readWords(r, (n*width+63)/64)
	if err != nil {
		return nil, fmt.Errorf("packed codes: %w", err)
	}
	mask := uint64(1)<<width - 1
	if width == 64 {
		mask = ^uint64(0)
	}
	for i := 0; i < n; i++ {
		bitPos := i * width
		w, off := bitPos/64, bitPos%64
		v := words[w] >> off
		if off+width > 64 {
			v |= words[w+1] << (64 - off)
		}
		codes[i] = v & mask
	}
	return codes, nil
}
