package exec

import (
	"hana/internal/expr"
	"hana/internal/value"
)

// The hash aggregate's morsel body. A segment runs in two phases. The key
// phase gives every live row a group ordinal in the morsel's partial
// straight from the key vectors: each key column folds its hash into the
// rows' key hashes (value.HashVec, column by column), then each row probes
// the partial's index, comparing a candidate's boxed key with the row's
// payload in place (value.Vec.Equals), and a row whose key is new starts a
// group. A lone dictionary key skips the hash: a code → group array, kept
// while the batches share the Dict, finds the group of a code seen before.
// The argument phase then folds each aggregate's argument into the states,
// in row order, by group ordinal: a BIGINT or DOUBLE vector is read in
// place, a numeric kernel (expr.CompileNum) is evaluated unboxed, and MIN,
// MAX, DISTINCT and every other argument read a Value and call AggState.Add.
// Keys and arguments that are not a bare typed column — a boxed (Vals) or
// pruned vector, a computed expression — are read through the segment's
// readers, one more case of the same loops.

// keyCol is one group key over the segment in hand: v, a typed column read
// in place, or, when v is nil, read, whose values keyPhase keeps in vals.
type keyCol struct {
	v    *value.Vec
	read func(int) (value.Value, error)
	vals []value.Value // read: the values read, by live ordinal
	memo dictMemo      // a dictionary-coded v
}

// dictMemo caches, for the Dict a key column's batches share, each entry's
// Value.Hash and, for a lone key, the group its code maps to (1 + ordinal,
// 0 not seen yet).
type dictMemo struct {
	dict  []string
	hash  []uint64
	group []int32
}

// argForm is how the argument phase folds an aggregate's argument.
type argForm uint8

const (
	argStar   argForm = iota // COUNT(*)
	argRead                  // AggState.Add of the value read
	argInts                  // foldInt over a BIGINT vector
	argFloats                // foldFloat over a DOUBLE vector
	argKernel                // foldInt or foldFloat of a numeric kernel's result
)

// argCol is one aggregate's argument over the segment in hand.
type argCol struct {
	form argForm
	v    *value.Vec
	num  expr.NumFn
	read func(int) (value.Value, error)
}

// groupBy is one morsel's aggregation: its partial and the scratch its
// segments share.
type groupBy struct {
	pt    *AggPartial
	es    []expr.Expr // the keys, then one argument per aggregate (nil for COUNT(*))
	empty []AggState  // one per aggregate, copied into each new group
	keys  []keyCol
	args  []argCol
	need  []expr.Expr // es, nil where a key or argument is read in place
	first int         // input ordinal of the segment's first row
	total int         // the morsel's rows, over all its segments
	rows  []int32     // scratch for a segment's physical rows
	hs    []uint64    // key hash per live row
	gid   []int32     // group ordinal per live row
}

// aggregateMorsel builds one morsel's partial group table: over segments
// whose first row is input ordinal base, with es the nk group keys followed
// by one argument per aggregate (nil for COUNT(*)). It returns the error a
// row-at-a-time loop would meet first: the first failing row's, its keys
// before its arguments, each in order.
func aggregateMorsel(segs []segment, base int, es []expr.Expr, aggs []AggSpec, nk int) (*AggPartial, error) {
	n, total := 0, 0
	for _, seg := range segs {
		n = max(n, seg.hi-seg.lo)
		total += seg.hi - seg.lo
	}
	g := &groupBy{
		pt: &AggPartial{}, es: es, empty: emptyStates(aggs), first: base, total: total,
		keys: make([]keyCol, nk), args: make([]argCol, len(aggs)), need: make([]expr.Expr, len(es)),
		rows: make([]int32, n), hs: make([]uint64, n), gid: make([]int32, n),
	}
	for _, seg := range segs {
		if err := g.segment(seg); err != nil {
			return nil, err
		}
	}
	return g.pt, nil
}

// segment aggregates one segment's live rows.
func (g *groupBy) segment(seg segment) error {
	rows := seg.physRows(g.rows)
	reads := g.prepare(seg)
	if reads {
		rd := expr.Readers(g.need, seg.b)
		for c := range g.keys {
			g.keys[c].read = rd[c]
		}
		for j := range g.args {
			g.args[j].read = rd[len(g.keys)+j]
		}
	}
	lim, keyErr := g.keyPhase(rows)
	if err := g.argPhase(rows[:lim]); err != nil {
		return err
	}
	g.first += len(rows)
	return keyErr
}

// prepare picks each key's and argument's form over seg and reports
// whether any is read through a reader (g.need lists those).
func (g *groupBy) prepare(seg segment) bool {
	reads := false
	for c := range g.keys {
		kc := &g.keys[c]
		e := g.es[c]
		kc.v, kc.read, g.need[c] = typedCol(e, seg.b), nil, nil
		switch v := kc.v; {
		case v == nil:
			g.need[c], reads = e, true
			if kc.vals == nil {
				kc.vals = make([]value.Value, len(g.rows))
			}
		case v.Dict != nil:
			kc.memo.use(v.Dict, len(g.keys) == 1, g.total)
		}
	}
	for j := range g.args {
		a := &g.args[j]
		e := g.es[len(g.keys)+j]
		st := &g.empty[j]
		plain := !st.Distinct && st.op != opMin && st.op != opMax
		a.v, a.read, g.need[len(g.keys)+j] = nil, nil, nil
		v := typedCol(e, seg.b)
		switch {
		case e == nil:
			a.form = argStar
		case plain && v != nil && v.Kind == value.KindInt:
			a.form, a.v = argInts, v
		case plain && v != nil && v.Kind == value.KindDouble:
			a.form, a.v = argFloats, v
		default:
			a.form = argRead
			if plain {
				if num, ok := expr.CompileNum(e, seg.b); ok {
					a.form, a.num = argKernel, num
					continue
				}
			}
			g.need[len(g.keys)+j], reads = e, true
		}
	}
	return reads
}

// typedCol returns the vector a bare column reference e reads in place
// over batch b: a typed payload, neither boxed nor pruned. nil means e is
// read through a reader.
func typedCol(e expr.Expr, b *value.Batch) *value.Vec {
	c, ok := e.(*expr.ColRef)
	if !ok || c.Ord < 0 || c.Ord >= len(b.Cols) {
		return nil
	}
	v := &b.Cols[c.Ord]
	if v.Vals != nil || v.Pruned || v.Kind == value.KindNull {
		return nil
	}
	return v
}

// use points the memo at dict, building it anew when dict is not the one
// it holds: every entry's hash, and for a lone key an empty group array.
// Building costs one string hash per entry and saves at most one per row it
// serves, so a dictionary with more entries than the morsel's rows is not
// memoized: those rows hash their strings.
func (m *dictMemo) use(dict []string, lone bool, rows int) {
	if len(dict) > rows {
		m.dict, m.hash, m.group = nil, nil, nil
		return
	}
	if len(m.dict) == len(dict) && (len(dict) == 0 || &m.dict[0] == &dict[0]) && (m.group != nil) == lone {
		return
	}
	m.dict = dict
	m.hash = make([]uint64, len(dict))
	for c, s := range dict {
		m.hash[c] = value.Value{K: value.KindVarchar, S: s}.Hash()
	}
	m.group = nil
	if lone {
		m.group = make([]int32, len(dict))
	}
}

var nullHash = value.Null.Hash()

// keyPhase gives rows (the segment's physical rows, by live ordinal) their
// group ordinals in g.gid, starting groups as it goes. It stops at the first
// row a key fails to read on, returning that row's ordinal and the error;
// otherwise len(rows) and nil.
func (g *groupBy) keyPhase(rows []int32) (int, error) {
	lim := len(rows)
	var keyErr error
	hs := g.hs[:lim]
	for k := range hs {
		hs[k] = value.KeyHashSeed
	}
	var k0 *keyCol
	if len(g.keys) == 1 && g.keys[0].v != nil && g.keys[0].v.Dict != nil && g.keys[0].memo.group != nil {
		k0 = &g.keys[0] // a lone dictionary key: codes map to groups
	}
	lone := k0 != nil
	for c := range g.keys {
		kc := &g.keys[c]
		switch {
		case lone:
			// the probe below hashes a code only when the memo lacks it
		case kc.v != nil:
			var memo []uint64
			if kc.v.Dict != nil {
				memo = kc.memo.hash
			}
			value.HashVec(hs, kc.v, rows[:lim], memo)
		default:
			vals := kc.vals
			for k, i := range rows[:lim] {
				x, err := kc.read(int(i))
				if err != nil {
					lim, keyErr = k, err
					break
				}
				vals[k] = x
				hs[k] = value.KeyHashStep(hs[k], x.Hash())
			}
		}
	}

	gid := g.gid[:lim]
	if lone {
		v, groups := k0.v, k0.memo.group
		for k, i := range rows[:lim] {
			if v.Null(int(i)) {
				gid[k] = g.lookup(value.KeyHashStep(value.KeyHashSeed, nullHash), k, int(i))
				continue
			}
			code := v.Codes[i]
			if o := groups[code]; o != 0 {
				gid[k] = o - 1
				continue
			}
			gid[k] = g.lookup(value.KeyHashStep(value.KeyHashSeed, k0.memo.hash[code]), k, int(i))
			groups[code] = gid[k] + 1
		}
		return lim, keyErr
	}
	for k, i := range rows[:lim] {
		gid[k] = g.lookup(hs[k], k, int(i))
	}
	return lim, keyErr
}

// lookup returns the ordinal of the group of live row k (physical row i),
// whose key hashes to h, starting the group if it is new.
func (g *groupBy) lookup(h uint64, k, i int) int32 {
	p := g.pt
	w := p.index.Probe(h)
	for o := p.index.Next(&w); o >= 0; o = p.index.Next(&w) {
		if g.keyEqual(p.Groups[o].Key, k, i) {
			return int32(o)
		}
	}
	grp := p.newGroup(len(g.keys), g.empty, int64(g.first+k))
	for c := range g.keys {
		grp.Key[c] = g.keys[c].value(k, i)
	}
	p.index.Insert(w)
	p.Groups = append(p.Groups, grp)
	return int32(len(p.Groups) - 1)
}

// value boxes the key of live row k, physical row i: what its reader gives.
func (kc *keyCol) value(k, i int) value.Value {
	if kc.v == nil {
		return kc.vals[k]
	}
	return kc.v.Value(i)
}

// keyEqual reports whether key, a group's, equals live row k's (physical
// row i) as value.Compare has it, comparing a typed payload in place.
func (g *groupBy) keyEqual(key value.Row, k, i int) bool {
	for c := range g.keys {
		kc := &g.keys[c]
		if kc.v == nil {
			if value.Compare(kc.vals[k], key[c]) != 0 {
				return false
			}
		} else if !kc.v.Equals(i, key[c]) {
			return false
		}
	}
	return true
}

// argPhase folds each aggregate's argument over rows (the live rows the key
// phase grouped) into the states of their groups. It stops at the first
// failing row, an earlier aggregate's error first within one row.
func (g *groupBy) argPhase(rows []int32) error {
	lim := len(rows)
	var err error
	groups, gid := g.pt.Groups, g.gid
	for j := range g.args {
		a := &g.args[j]
		v := a.v
		switch a.form {
		case argStar:
			for _, o := range gid[:lim] {
				st := groups[o].States[j]
				st.Count++
				st.HasVal = true
			}
		case argInts:
			ints := v.Ints
			for k, i := range rows[:lim] {
				if !v.Null(int(i)) {
					groups[gid[k]].States[j].foldInt(ints[i])
				}
			}
		case argFloats:
			fs := v.Floats
			for k, i := range rows[:lim] {
				if !v.Null(int(i)) {
					groups[gid[k]].States[j].foldFloat(fs[i])
				}
			}
		case argKernel:
			if n := a.num.N; n != nil {
				for k, i := range rows[:lim] {
					x, null, e := n(int(i))
					if e != nil {
						lim, err = k, e
						break
					}
					if !null {
						groups[gid[k]].States[j].foldInt(x)
					}
				}
				break
			}
			f := a.num.F
			for k, i := range rows[:lim] {
				x, null, e := f(int(i))
				if e != nil {
					lim, err = k, e
					break
				}
				if !null {
					groups[gid[k]].States[j].foldFloat(x)
				}
			}
		case argRead:
			for k, i := range rows[:lim] {
				x, e := a.read(int(i))
				if e != nil {
					lim, err = k, e
					break
				}
				groups[gid[k]].States[j].Add(x)
			}
		}
	}
	return err
}
