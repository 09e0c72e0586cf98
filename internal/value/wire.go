package value

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire encoding of values and rows — the redo-record row format shared by
// the WAL and the savepoint row files. The encoding is deterministic
// (byte-identical for equal rows), self-delimiting, and append-friendly:
//
//	value: [1B kind][payload]   payload by kind:
//	  NULL                      —
//	  BOOLEAN                   1 byte (0/1)
//	  BIGINT/DATE/TIMESTAMP     zigzag varint
//	  DOUBLE                    8 bytes little-endian IEEE bits
//	  VARCHAR                   uvarint length + bytes
//	row: uvarint column count, then each value

// AppendValue appends the wire encoding of v to buf.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.K))
	switch v.K {
	case KindNull:
	case KindBool:
		if v.I != 0 {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case KindInt, KindDate, KindTimestamp:
		buf = binary.AppendVarint(buf, v.I)
	case KindDouble:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
		buf = append(buf, b[:]...)
	case KindVarchar:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	}
	return buf
}

// DecodeValue decodes one value from b, returning it and the bytes
// consumed.
func DecodeValue(b []byte) (Value, int, error) { return decodeValue(b) }

// DecodeValueString is DecodeValue over a string: a VARCHAR is a substring
// of s, not a copy.
func DecodeValueString(s string) (Value, int, error) { return decodeValue(s) }

// ValueWidthString reports the kind and the encoded width of the value at
// the head of s without building it: false wherever DecodeValueString fails.
func ValueWidthString(s string) (Kind, int, bool) {
	if len(s) == 0 {
		return KindNull, 0, false
	}
	k := Kind(s[0])
	switch k {
	case KindNull:
		return k, 1, true
	case KindBool:
		return k, 2, len(s) >= 2
	case KindInt, KindDate, KindTimestamp:
		_, w := Uvarint(s[1:])
		return k, 1 + w, w > 0
	case KindDouble:
		return k, 9, len(s) >= 9
	case KindVarchar:
		l, w := Uvarint(s[1:])
		if w <= 0 || l > uint64(len(s)-1-w) {
			return k, 0, false
		}
		return k, 1 + w + int(l), true
	}
	return k, 0, false
}

func decodeValue[B []byte | string](b B) (Value, int, error) {
	if len(b) == 0 {
		return Null, 0, fmt.Errorf("value decode: empty buffer")
	}
	k := Kind(b[0])
	n := 1
	switch k {
	case KindNull:
		return Null, n, nil
	case KindBool:
		if len(b) < 2 {
			return Null, 0, fmt.Errorf("value decode: short BOOLEAN")
		}
		return Value{K: KindBool, I: int64(b[1] & 1)}, 2, nil
	case KindInt, KindDate, KindTimestamp:
		u, w := Uvarint(b[1:])
		if w <= 0 {
			return Null, 0, fmt.Errorf("value decode: bad varint")
		}
		return Value{K: k, I: int64(u>>1) ^ -int64(u&1)}, 1 + w, nil
	case KindDouble:
		if len(b) < 9 {
			return Null, 0, fmt.Errorf("value decode: short DOUBLE")
		}
		var bits uint64
		for i := 8; i > 0; i-- {
			bits = bits<<8 | uint64(b[i])
		}
		return Value{K: KindDouble, F: math.Float64frombits(bits)}, 9, nil
	case KindVarchar:
		l, w := Uvarint(b[1:])
		// Compare against the remaining length: 1+w+l wraps for a hostile l.
		if w <= 0 || l > uint64(len(b)-1-w) {
			return Null, 0, fmt.Errorf("value decode: short VARCHAR")
		}
		start := 1 + w
		return Value{K: KindVarchar, S: string(b[start : start+int(l)])}, start + int(l), nil
	}
	return Null, 0, fmt.Errorf("value decode: unknown kind %d", k)
}

// Uvarint is binary.Uvarint over bytes or a string: the value and the bytes
// it took, 0 bytes for a truncated encoding and fewer for an overlong one.
func Uvarint[B []byte | string](b B) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < binary.MaxVarintLen64; i++ {
		c := b[i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, -(i + 1)
			}
			return x | uint64(c)<<(7*i), i + 1
		}
		x |= uint64(c&0x7f) << (7 * i)
	}
	if len(b) >= binary.MaxVarintLen64 {
		return 0, -(binary.MaxVarintLen64 + 1)
	}
	return 0, 0
}

// AppendRow appends the wire encoding of a row to buf.
func AppendRow(buf []byte, row Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for _, v := range row {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeRow decodes one row from b, returning it and the bytes consumed.
func DecodeRow(b []byte) (Row, int, error) {
	cols, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, 0, fmt.Errorf("row decode: bad column count")
	}
	if cols > 1<<20 {
		return nil, 0, fmt.Errorf("row decode: implausible column count %d", cols)
	}
	off := w
	row := make(Row, cols)
	for i := range row {
		v, n, err := DecodeValue(b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("row decode: column %d: %w", i, err)
		}
		row[i] = v
		off += n
	}
	return row, off, nil
}

// Cursor reads the platform's binary encodings front to back: the values
// and rows above, and the varints, flags, uvarint-framed strings and
// little-endian words the exchange, aggregate-state and redo codecs frame
// them with. The first malformed or truncated field latches an error and
// every later read returns a zero value, so a decoder reads a whole message
// and checks Err once.
type Cursor struct {
	b   []byte
	off int
	err error
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Off returns the number of bytes read so far.
func (c *Cursor) Off() int { return c.off }

// Err returns the latched error: nil while every read has succeeded.
func (c *Cursor) Err() error { return c.err }

// Fail latches err unless an error is latched already: how a decoder
// rejects a field it read.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *Cursor) truncated(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("truncated %s at offset %d", what, c.off)
	}
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.err != nil || c.off >= len(c.b) {
		c.truncated("byte")
		return 0
	}
	c.off++
	return c.b[c.off-1]
}

// Bool reads a one-byte flag: any byte but 0 is true.
func (c *Cursor) Bool() bool { return c.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.truncated("uvarint")
		return 0
	}
	c.off += n
	return v
}

// Varint reads a zigzag varint.
func (c *Cursor) Varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.truncated("varint")
		return 0
	}
	c.off += n
	return v
}

// Uint64 reads eight little-endian bytes.
func (c *Cursor) Uint64() uint64 {
	if c.err != nil || len(c.b)-c.off < 8 {
		c.truncated("uint64")
		return 0
	}
	c.off += 8
	return binary.LittleEndian.Uint64(c.b[c.off-8:])
}

// Left returns the number of bytes not yet read: what a decoder checks a
// length field against before sizing anything from it.
func (c *Cursor) Left() int { return len(c.b) - c.off }

// Bytes reads n raw bytes, a slice of the cursor's buffer (not a copy).
func (c *Cursor) Bytes(n int) []byte {
	if c.err != nil || n < 0 || len(c.b)-c.off < n {
		c.truncated("bytes")
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off : c.off]
}

// Str reads a uvarint length and that many bytes as a string.
func (c *Cursor) Str() string {
	l := c.Uvarint()
	if c.err != nil {
		return ""
	}
	if uint64(len(c.b)-c.off) < l {
		c.truncated("string")
		return ""
	}
	c.off += int(l)
	return string(c.b[c.off-int(l) : c.off])
}

// Value reads one value written by AppendValue.
func (c *Cursor) Value() Value {
	if c.err != nil {
		return Null
	}
	v, n, err := DecodeValue(c.b[c.off:])
	if err != nil {
		c.err = err
		return Null
	}
	c.off += n
	return v
}

// Row reads one row written by AppendRow.
func (c *Cursor) Row() Row {
	if c.err != nil {
		return nil
	}
	r, n, err := DecodeRow(c.b[c.off:])
	if err != nil {
		c.err = err
		return nil
	}
	c.off += n
	return r
}
