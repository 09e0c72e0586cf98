// Package diskstore implements the disk-based columnar extended storage —
// the platform's substitute for the Sybase IQ storage engine that SAP HANA
// integrates as "extended storage" (§3.1 of the paper). Tables are split
// into fixed-size row chunks; each column chunk is compressed (dictionary or
// frame-of-reference encoding) and written to its own page file. Per-chunk
// zone maps (min/max) let scans skip chunks, and a small LRU buffer cache
// keeps hot decompressed chunks in memory. Tables are append-only: no row is
// ever removed, and which rows live is the engine's MVCC layer's business.
package diskstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

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

// decodeChunk is the inverse of encodeChunk. The bytes come from disk, so
// nothing in them is trusted: every count is bounded by the bytes that
// remain before anything is allocated for it, every read is a full read,
// and a dictionary code must name a dictionary entry.
func decodeChunk(data []byte) ([]value.Value, error) {
	r := bytes.NewReader(data)
	kindB, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("chunk header: %w", err)
	}
	kind := value.Kind(kindB)
	n64, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("chunk count: %w", err)
	}
	// Every row owns one bit of the null bitmap that follows.
	if n64 > 8*uint64(r.Len()) {
		return nil, fmt.Errorf("chunk count %d exceeds the %d bytes that remain", n64, r.Len())
	}
	n := int(n64)
	nullWords, err := readWords(r, (n+63)/64)
	if err != nil {
		return nil, fmt.Errorf("null bitmap: %w", err)
	}
	isNull := func(i int) bool { return nullWords[i/64]&(1<<(i%64)) != 0 }
	enc, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("chunk encoding: %w", err)
	}
	vals := make([]value.Value, n)
	switch {
	case kind == value.KindVarchar && enc == encDict:
		dn, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("dictionary count: %w", err)
		}
		// Every entry owns at least its length byte.
		if dn > uint64(r.Len()) {
			return nil, fmt.Errorf("dictionary count %d exceeds the %d bytes that remain", dn, r.Len())
		}
		dict := make([]string, dn)
		// Scratch read buffer shared across dictionary entries; the string
		// conversion copies, so reuse is safe.
		var sb []byte
		for i := range dict {
			sl, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, fmt.Errorf("dictionary entry %d: %w", i, err)
			}
			if sl > uint64(r.Len()) {
				return nil, fmt.Errorf("dictionary entry %d: length %d exceeds the %d bytes that remain", i, sl, r.Len())
			}
			if uint64(len(sb)) < sl {
				sb = make([]byte, sl)
			}
			buf := sb[:sl]
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, fmt.Errorf("dictionary entry %d: %w", i, err)
			}
			dict[i] = string(buf)
		}
		codes, err := readPacked(r, n)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			switch {
			case isNull(i):
				vals[i] = value.Null
			case codes[i] >= dn:
				return nil, fmt.Errorf("row %d: dictionary code %d out of range (%d entries)", i, codes[i], dn)
			default:
				vals[i] = value.NewString(dict[codes[i]])
			}
		}
	case kind == value.KindDouble && enc == encRaw:
		bits, err := readWords(r, n)
		if err != nil {
			return nil, fmt.Errorf("double payload: %w", err)
		}
		for i := 0; i < n; i++ {
			if isNull(i) {
				vals[i] = value.Null
			} else {
				vals[i] = value.NewDouble(math.Float64frombits(bits[i]))
			}
		}
	case enc == encFOR && (kind == value.KindBool || kind == value.KindInt || kind == value.KindDate || kind == value.KindTimestamp):
		frame, err := readWords(r, 1)
		if err != nil {
			return nil, fmt.Errorf("frame of reference: %w", err)
		}
		base := int64(frame[0])
		codes, err := readPacked(r, n)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if isNull(i) {
				vals[i] = value.Null
			} else {
				vals[i] = value.Value{K: kind, I: base + int64(codes[i])}
			}
		}
	default:
		return nil, fmt.Errorf("unknown chunk encoding kind=%d enc=%d", kind, enc)
	}
	return vals, nil
}

// readWords reads n little-endian 64-bit words, refusing a count the
// remaining bytes cannot hold before it allocates for it.
func readWords(r *bytes.Reader, n int) ([]uint64, error) {
	if n > r.Len()/8 {
		return nil, fmt.Errorf("%d words exceed the %d bytes that remain: %w", n, r.Len(), io.ErrUnexpectedEOF)
	}
	words := make([]uint64, n)
	var b [8]byte
	for i := range words {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, err
		}
		words[i] = binary.LittleEndian.Uint64(b[:])
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
