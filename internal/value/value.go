// Package value defines the data types, values, rows and schemas shared by
// every storage and processing engine in the platform: the in-memory column
// and row stores, the disk-based extended storage, the event stream
// processor, the Hive/MapReduce substrate and the federation layer.
//
// A Value is a compact tagged union. Strings are interned by the stores via
// dictionary encoding; the Value itself carries the string for exchange
// between engines.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the SQL data types supported across the platform.
type Kind uint8

// Supported kinds. KindNull is the type of the SQL NULL literal before it is
// coerced to a column type.
const (
	KindNull Kind = iota
	KindBool
	KindInt     // 64-bit signed integer (covers INTEGER and BIGINT)
	KindDouble  // 64-bit IEEE float (covers DOUBLE and DECIMAL in this engine)
	KindVarchar // UTF-8 string
	KindDate    // days since 1970-01-01
	KindTimestamp
)

// String returns the SQL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "BIGINT"
	case KindDouble:
		return "DOUBLE"
	case KindVarchar:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	case KindTimestamp:
		return "TIMESTAMP"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromSQL maps a SQL type name (possibly with a length suffix, e.g.
// VARCHAR(30)) to a Kind. It returns false for unknown names.
func KindFromSQL(name string) (Kind, bool) {
	base := strings.ToUpper(name)
	if i := strings.IndexByte(base, '('); i >= 0 {
		base = base[:i]
	}
	switch strings.TrimSpace(base) {
	case "BOOL", "BOOLEAN":
		return KindBool, true
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return KindInt, true
	case "DOUBLE", "FLOAT", "REAL", "DECIMAL", "NUMERIC":
		return KindDouble, true
	case "VARCHAR", "NVARCHAR", "CHAR", "STRING", "TEXT", "CLOB":
		return KindVarchar, true
	case "DATE":
		return KindDate, true
	case "TIMESTAMP", "DATETIME", "SECONDDATE":
		return KindTimestamp, true
	}
	return KindNull, false
}

// Value is a tagged union holding one SQL value. The zero Value is NULL.
type Value struct {
	K Kind
	I int64   // KindBool (0/1), KindInt, KindDate (days), KindTimestamp (micros)
	F float64 // KindDouble
	S string  // KindVarchar
}

// Null is the SQL NULL value.
var Null = Value{K: KindNull}

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	if b {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// NewInt returns a BIGINT value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewDouble returns a DOUBLE value.
func NewDouble(f float64) Value { return Value{K: KindDouble, F: f} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{K: KindVarchar, S: s} }

// NewDate returns a DATE value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{K: KindDate, I: days} }

// NewTimestamp returns a TIMESTAMP value from microseconds since the epoch.
func NewTimestamp(micros int64) Value { return Value{K: KindTimestamp, I: micros} }

// DateFromTime converts a time.Time to a DATE value (UTC calendar day).
func DateFromTime(t time.Time) Value {
	return NewDate(t.UTC().Unix() / 86400)
}

// TimestampFromTime converts a time.Time to a TIMESTAMP value.
func TimestampFromTime(t time.Time) Value {
	return NewTimestamp(t.UnixMicro())
}

// ParseDate parses a YYYY-MM-DD literal.
func ParseDate(s string) (Value, error) {
	t, err := time.ParseInLocation("2006-01-02", s, time.UTC)
	if err != nil {
		return Null, fmt.Errorf("invalid DATE literal %q: %w", s, err)
	}
	return DateFromTime(t), nil
}

// ParseTimestamp parses a YYYY-MM-DD[ HH:MM:SS[.ffffff]] literal.
func ParseTimestamp(s string) (Value, error) {
	for _, layout := range []string{"2006-01-02 15:04:05.999999", "2006-01-02 15:04:05", "2006-01-02"} {
		if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			return TimestampFromTime(t), nil
		}
	}
	return Null, fmt.Errorf("invalid TIMESTAMP literal %q", s)
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool returns the boolean payload. It is only meaningful for KindBool.
func (v Value) Bool() bool { return v.I != 0 }

// Int returns the integer payload (KindInt/KindDate/KindTimestamp), or a
// truncated double.
func (v Value) Int() int64 {
	if v.K == KindDouble {
		return int64(v.F)
	}
	return v.I
}

// Float returns the value as a float64, promoting integers.
func (v Value) Float() float64 {
	if v.K == KindDouble {
		return v.F
	}
	return float64(v.I)
}

// Str returns the string payload.
func (v Value) Str() string { return v.S }

// Time converts a DATE or TIMESTAMP value to time.Time (UTC).
func (v Value) Time() time.Time {
	switch v.K {
	case KindDate:
		return time.Unix(v.I*86400, 0).UTC()
	case KindTimestamp:
		return time.UnixMicro(v.I).UTC()
	}
	return time.Time{}
}

// numericKind reports whether k participates in arithmetic promotion.
func numericKind(k Kind) bool { return k == KindInt || k == KindDouble }

// Compare orders two values: -1, 0, +1. NULL sorts before every non-NULL
// value. Numeric kinds compare by promoted value (CompareFloats: a NaN
// equals a NaN and sorts above every number, as in PostgreSQL); temporal
// kinds compare by their integer encodings; mixed incomparable kinds compare
// by kind tag so that sorting is still total.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == KindNull && b.K == KindNull:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numericKind(a.K) && numericKind(b.K) {
		if a.K == KindInt && b.K == KindInt {
			return cmpInt(a.I, b.I)
		}
		return CompareFloats(a.Float(), b.Float())
	}
	if a.K != b.K {
		// Temporal kinds are mutually comparable by encoding.
		if temporal(a.K) && temporal(b.K) {
			return cmpInt(a.I, b.I)
		}
		return cmpInt(int64(a.K), int64(b.K))
	}
	switch a.K {
	case KindBool, KindInt, KindDate, KindTimestamp:
		return cmpInt(a.I, b.I)
	case KindDouble:
		return CompareFloats(a.F, b.F)
	case KindVarchar:
		return strings.Compare(a.S, b.S)
	}
	return 0
}

func temporal(k Kind) bool { return k == KindDate || k == KindTimestamp }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// CompareFloats orders two doubles totally: by value, −0.0 equal to 0.0,
// and a NaN equal to any NaN and above every number, +Inf included.
func CompareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// At least one side is NaN.
	switch an, bn := a != a, b != b; {
	case an && bn:
		return 0
	case an:
		return 1
	default:
		return -1
	}
}

// FNV-1a constants; Hash inlines the arithmetic instead of allocating an
// fnv.New64a state per call — this runs once per value per row in every
// hash join and aggregation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUint64(h uint64, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(x>>(8*i)))
	}
	return h
}

// Hash returns a 64-bit hash suitable for hash joins and aggregation.
// Values that compare equal hash equally (numerics hash by float image when
// either side may be a double; we always hash the float image of numerics,
// −0.0 as +0.0 and every NaN as one NaN, as Compare equates them).
// The result is exactly FNV-1a over a kind tag plus the little-endian
// payload bytes, allocation-free.
func (v Value) Hash() uint64 {
	switch v.K {
	case KindBool:
		return hashBool(v.I)
	case KindInt:
		return hashFloat(float64(v.I))
	case KindDouble:
		return hashFloat(v.F)
	case KindDate, KindTimestamp:
		return hashTemporal(v.I)
	case KindVarchar:
		return hashStr(v.S)
	}
	return nullHash
}

// The per-kind halves of Hash, which the vector loops (HashVec) call on a
// payload in place.
var nullHash = fnvByte(fnvOffset64, 0)

func hashBool(i int64) uint64 { return fnvByte(fnvByte(fnvOffset64, 1), byte(i)) }

func hashFloat(f float64) uint64 {
	if f == 0 {
		f = 0 // −0.0 as +0.0
	} else if f != f {
		f = math.NaN() // every NaN as one
	}
	return fnvUint64(fnvByte(fnvOffset64, 2), math.Float64bits(f))
}

func hashTemporal(i int64) uint64 { return fnvUint64(fnvByte(fnvOffset64, 3), uint64(i)) }

func hashStr(s string) uint64 {
	h := fnvByte(fnvOffset64, 4)
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// String renders the value for display and for remote SQL generation of
// literals (VARCHAR values are NOT quoted; use SQLLiteral for that).
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindDouble:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindVarchar:
		return v.S
	case KindDate:
		return v.Time().Format("2006-01-02")
	case KindTimestamp:
		return v.Time().Format("2006-01-02 15:04:05.000000")
	}
	return "?"
}

// SQLLiteral renders the value as a SQL literal that the parser accepts
// again, used when generating remote statements for query shipping.
func (v Value) SQLLiteral() string {
	switch v.K {
	case KindVarchar:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KindDate:
		return "DATE '" + v.String() + "'"
	case KindTimestamp:
		return "TIMESTAMP '" + v.String() + "'"
	case KindDouble:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			// No literal spells these; the cast parses back to them.
			return "CAST('" + v.String() + "' AS DOUBLE)"
		}
		return v.String()
	default:
		return v.String()
	}
}

// Cast coerces v to kind k, returning an error when the conversion is not
// meaningful. Casting NULL yields NULL of any kind.
func Cast(v Value, k Kind) (Value, error) {
	if v.K == KindNull || v.K == k {
		if v.K == KindNull {
			return Null, nil
		}
		return v, nil
	}
	switch k {
	case KindBool:
		switch v.K {
		case KindInt:
			return NewBool(v.I != 0), nil
		}
	case KindInt:
		switch v.K {
		case KindDouble:
			return NewInt(int64(v.F)), nil
		case KindBool, KindDate, KindTimestamp:
			return NewInt(v.I), nil
		case KindVarchar:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("cannot cast %q to BIGINT", v.S)
			}
			return NewInt(i), nil
		}
	case KindDouble:
		switch v.K {
		case KindInt, KindBool:
			return NewDouble(float64(v.I)), nil
		case KindVarchar:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return Null, fmt.Errorf("cannot cast %q to DOUBLE", v.S)
			}
			return NewDouble(f), nil
		}
	case KindVarchar:
		return NewString(v.String()), nil
	case KindDate:
		switch v.K {
		case KindVarchar:
			return ParseDate(strings.TrimSpace(v.S))
		case KindTimestamp:
			return NewDate(v.I / (86400 * 1e6)), nil
		case KindInt:
			return NewDate(v.I), nil
		}
	case KindTimestamp:
		switch v.K {
		case KindVarchar:
			return ParseTimestamp(strings.TrimSpace(v.S))
		case KindDate:
			return NewTimestamp(v.I * 86400 * 1e6), nil
		case KindInt:
			return NewTimestamp(v.I), nil
		}
	}
	return Null, fmt.Errorf("cannot cast %s to %s", v.K, k)
}

// Add returns a+b with numeric promotion; DATE + INT adds days.
func Add(a, b Value) (Value, error) { return arith(a, b, '+') }

// Sub returns a-b with numeric promotion; DATE - INT subtracts days.
func Sub(a, b Value) (Value, error) { return arith(a, b, '-') }

// Mul returns a*b with numeric promotion.
func Mul(a, b Value) (Value, error) { return arith(a, b, '*') }

// Div returns a/b; integer operands produce a DOUBLE quotient (OLAP
// semantics) and division by zero is an error.
func Div(a, b Value) (Value, error) { return arith(a, b, '/') }

func arith(a, b Value, op byte) (Value, error) {
	if a.K == KindNull || b.K == KindNull {
		return Null, nil
	}
	if a.K == KindDate && b.K == KindInt && (op == '+' || op == '-') {
		if op == '+' {
			return NewDate(a.I + b.I), nil
		}
		return NewDate(a.I - b.I), nil
	}
	if a.K == KindDate && b.K == KindDate && op == '-' {
		return NewInt(a.I - b.I), nil
	}
	if !numericKind(a.K) || !numericKind(b.K) {
		return Null, fmt.Errorf("arithmetic %c not defined for %s and %s", op, a.K, b.K)
	}
	if a.K == KindInt && b.K == KindInt && op != '/' {
		switch op {
		case '+':
			return NewInt(a.I + b.I), nil
		case '-':
			return NewInt(a.I - b.I), nil
		case '*':
			return NewInt(a.I * b.I), nil
		}
	}
	x, y := a.Float(), b.Float()
	switch op {
	case '+':
		return NewDouble(x + y), nil
	case '-':
		return NewDouble(x - y), nil
	case '*':
		return NewDouble(x * y), nil
	case '/':
		if y == 0 {
			return Null, fmt.Errorf("division by zero")
		}
		return NewDouble(x / y), nil
	}
	return Null, fmt.Errorf("unknown arithmetic operator %c", op)
}
