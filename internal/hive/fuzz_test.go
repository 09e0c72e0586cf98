package hive

import (
	"math"
	"strings"
	"testing"

	"hana/internal/exec"
	"hana/internal/value"
)

// The shuffle codec reads what map and combine tasks wrote to HDFS: on
// arbitrary input decodePartial returns a state or an error, never panics,
// and a state it accepts re-encodes to text that decodes to the same
// encoding. Encodings are compared as strings, so a NaN sum or bound
// compares by its bit pattern.
func FuzzDecodePartial(f *testing.F) {
	sum := func(xs ...float64) (s exec.ExactSum) {
		for _, x := range xs {
			s.Add(x)
		}
		return s
	}
	for _, st := range []*exec.AggState{
		{Count: 2, Sum: sum(14.5), SumI: 14, IntOnly: true, HasVal: true, Min: value.NewInt(5), Max: value.NewDouble(9.5), SumSq: sum(115.25)},
		{Count: 1, Sum: sum(math.NaN()), HasVal: true, Min: value.NewDate(16517), Max: value.NewTimestamp(1427068800000000)},
		{Count: 3, HasVal: true, Min: value.NewBool(false), Max: value.NewString("zeta"), SumSq: sum(math.Inf(-1))},
		{Min: value.Null, Max: value.NewDouble(math.Copysign(0, -1))},
		// Six partials (past the inline four) and cancelling ones.
		{Count: 6, Sum: sum(0x1p-1000, 0x1p-800, 0x1p-600, 0x1p-400, 0x1p-200, 1), SumSq: sum(1e16, 1, -1e16, 0.5), HasVal: true},
	} {
		f.Add(encodePartial(st))
	}
	f.Add(strings.Join([]string{"1", "0", "1", "true", "true", "i1", "i1"}, "\x03"))    // seven fields
	f.Add(strings.Join([]string{"0", "0", "0", "true", "false", "", "n", "0"}, "\x03")) // an empty typed field
	// A list no encoder writes: overlapping, unordered, with an infinity after finite partials.
	f.Add(strings.Join([]string{"3", "3ff0000000000000,3ff0000000000000,4340000000000000", "0", "false", "true", "n", "n", "3ff0000000000000,7ff0000000000000,3ff0000000000000"}, "\x03"))
	f.Fuzz(func(t *testing.T, s string) {
		st, err := decodePartial(s)
		if err != nil {
			return
		}
		enc := encodePartial(&st)
		again, err := decodePartial(enc)
		if err != nil {
			t.Fatalf("re-encoded partial %q does not decode: %v", enc, err)
		}
		if got := encodePartial(&again); got != enc {
			t.Fatalf("re-encoding is not stable:\n%q\n%q", enc, got)
		}
	})
}
