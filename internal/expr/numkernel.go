package expr

import (
	"fmt"

	"hana/internal/value"
)

// Numeric expression kernels: arithmetic trees over bound numeric columns
// and literals compile to per-row closures reading the batch's primitive
// arrays, skipping both row materialization and the tree-walking
// interpreter. Every case mirrors value arithmetic exactly — the same
// promotion rules (INT op INT stays INT except division, anything touching
// a DOUBLE promotes each operand via Value.Float), the same NULL
// propagation (checked before the division-by-zero test), and the same
// error messages — so a kernel's result is the Value Eval would produce on
// a materialized row, bit for bit.

// NumFn is a compiled numeric subtree, a function of a physical row index.
// Kind is the static result kind; exactly one of F (KindDouble) and N
// (KindInt) is set. The bool result reports SQL NULL.
type NumFn struct {
	Kind value.Kind
	F    func(i int) (float64, bool, error)
	N    func(i int) (int64, bool, error)
}

// floatFn returns the subtree as a float evaluator, promoting integer
// results exactly as Value.Float does.
func (k NumFn) floatFn() func(i int) (float64, bool, error) {
	if k.F != nil {
		return k.F
	}
	n := k.N
	return func(i int) (float64, bool, error) {
		v, null, err := n(i)
		return float64(v), null, err
	}
}

func constNullNum() NumFn {
	return NumFn{Kind: value.KindInt, N: func(int) (int64, bool, error) { return 0, true, nil }}
}

// CompileNum compiles a numeric subtree over b's vectors: its result is the
// Value Eval gives on the materialized row, unboxed. ok=false means some
// node falls outside the supported set (non-numeric kinds, boxed vectors,
// operators with non-arithmetic semantics such as DATE+INT) and the caller
// must keep the row-major Eval path. The hash aggregate folds a kernel's
// result into its states as it comes.
func CompileNum(e Expr, b *value.Batch) (NumFn, bool) {
	switch n := e.(type) {
	case *Literal:
		v := n.Val
		switch v.K {
		case value.KindNull:
			return constNullNum(), true
		case value.KindInt:
			c := v.I
			return NumFn{Kind: value.KindInt, N: func(int) (int64, bool, error) { return c, false, nil }}, true
		case value.KindDouble:
			c := v.F
			return NumFn{Kind: value.KindDouble, F: func(int) (float64, bool, error) { return c, false, nil }}, true
		}
		return NumFn{}, false
	case *ColRef:
		v, ok := colVec(n, b)
		if !ok || v.Vals != nil {
			return NumFn{}, false
		}
		if v.Pruned { // pruned columns read as NULL everywhere
			return constNullNum(), true
		}
		switch v.Kind {
		case value.KindInt:
			ints := v.Ints
			return NumFn{Kind: value.KindInt, N: func(i int) (int64, bool, error) {
				if v.Null(i) {
					return 0, true, nil
				}
				return ints[i], false, nil
			}}, true
		case value.KindDouble:
			fs := v.Floats
			return NumFn{Kind: value.KindDouble, F: func(i int) (float64, bool, error) {
				if v.Null(i) {
					return 0, true, nil
				}
				return fs[i], false, nil
			}}, true
		}
		return NumFn{}, false
	case *BinOp:
		switch n.Op {
		case OpAdd, OpSub, OpMul, OpDiv:
		default:
			return NumFn{}, false
		}
		l, ok := CompileNum(n.L, b)
		if !ok {
			return NumFn{}, false
		}
		r, ok := CompileNum(n.R, b)
		if !ok {
			return NumFn{}, false
		}
		// INT op INT stays INT for +,-,* (Go int64 ops wrap exactly like
		// value arithmetic's); everything else — including all divisions —
		// promotes both operands to float64.
		if n.Op != OpDiv && l.Kind == value.KindInt && r.Kind == value.KindInt {
			ln, rn := l.N, r.N
			op := n.Op
			return NumFn{Kind: value.KindInt, N: func(i int) (int64, bool, error) {
				a, anull, err := ln(i)
				if err != nil {
					return 0, false, err
				}
				c, cnull, err := rn(i)
				if err != nil {
					return 0, false, err
				}
				if anull || cnull {
					return 0, true, nil
				}
				switch op {
				case OpAdd:
					return a + c, false, nil
				case OpSub:
					return a - c, false, nil
				default: // OpMul
					return a * c, false, nil
				}
			}}, true
		}
		lf, rf := l.floatFn(), r.floatFn()
		op := n.Op
		return NumFn{Kind: value.KindDouble, F: func(i int) (float64, bool, error) {
			x, xnull, err := lf(i)
			if err != nil {
				return 0, false, err
			}
			y, ynull, err := rf(i)
			if err != nil {
				return 0, false, err
			}
			if xnull || ynull {
				return 0, true, nil
			}
			switch op {
			case OpAdd:
				return x + y, false, nil
			case OpSub:
				return x - y, false, nil
			case OpMul:
				return x * y, false, nil
			default: // OpDiv
				if y == 0 {
					return 0, false, fmt.Errorf("division by zero")
				}
				return x / y, false, nil
			}
		}}, true
	}
	return NumFn{}, false
}

// EvalKernel compiles e into a per-physical-row evaluator over b's vectors.
// It covers numeric arithmetic trees (the typical aggregate arguments and
// computed projections); ok=false means an unsupported node and the caller
// keeps the row-major Eval path. Bare column references and lone literals
// are rejected too — callers read those directly. A kernel returns exactly
// the Value Eval would produce on the materialized row, including NULL
// propagation and error text.
func EvalKernel(e Expr, b *value.Batch) (func(i int) (value.Value, error), bool) {
	switch e.(type) {
	case *ColRef, *Literal:
		return nil, false
	}
	k, ok := CompileNum(e, b)
	if !ok {
		return nil, false
	}
	if k.F != nil {
		f := k.F
		return func(i int) (value.Value, error) {
			v, null, err := f(i)
			if err != nil || null {
				return value.Null, err
			}
			return value.NewDouble(v), nil
		}, true
	}
	n := k.N
	return func(i int) (value.Value, error) {
		v, null, err := n(i)
		if err != nil || null {
			return value.Null, err
		}
		return value.NewInt(v), nil
	}, true
}
