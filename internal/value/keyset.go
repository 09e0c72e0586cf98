package value

import "strings"

// Per-vector hash and equality: the key loops of the hash aggregate, the
// hash join and the key set read a column's typed payload in place and get
// the answers Value.Hash and Compare give on the boxed values.

// HashVec folds column v's hash at each of rows, physical rows, into hs:
// hs[k] becomes KeyHashStep(hs[k], v.Value(rows[k]).Hash()). A typed
// payload is read in place; dictHash, when not nil, holds the Hash of each
// of v.Dict's entries.
func HashVec(hs []uint64, v *Vec, rows []int32, dictHash []uint64) {
	if v.Pruned || v.Vals != nil || v.Kind == KindNull {
		for k, i := range rows {
			hs[k] = KeyHashStep(hs[k], v.Value(int(i)).Hash())
		}
		return
	}
	nulls := v.Nulls != nil
	switch v.Kind {
	case KindDouble:
		fs := v.Floats
		for k, i := range rows {
			h := nullHash
			if !nulls || !v.Null(int(i)) {
				h = hashFloat(fs[i])
			}
			hs[k] = KeyHashStep(hs[k], h)
		}
	case KindVarchar:
		for k, i := range rows {
			h := nullHash
			switch {
			case nulls && v.Null(int(i)):
			case dictHash != nil:
				h = dictHash[v.Codes[i]]
			default:
				h = hashStr(v.Str(int(i)))
			}
			hs[k] = KeyHashStep(hs[k], h)
		}
	case KindInt:
		ints := v.Ints
		for k, i := range rows {
			h := nullHash
			if !nulls || !v.Null(int(i)) {
				h = hashFloat(float64(ints[i]))
			}
			hs[k] = KeyHashStep(hs[k], h)
		}
	default:
		for k, i := range rows {
			hs[k] = KeyHashStep(hs[k], v.HashAt(int(i)))
		}
	}
}

// HashAt is row i's Value.Hash, read in place.
func (v *Vec) HashAt(i int) uint64 {
	if v.Pruned || v.Vals != nil || v.Null(i) {
		return v.Value(i).Hash()
	}
	switch v.Kind {
	case KindDouble:
		return hashFloat(v.Floats[i])
	case KindVarchar:
		return hashStr(v.Str(i))
	case KindInt:
		return hashFloat(float64(v.Ints[i]))
	case KindBool:
		return hashBool(v.Ints[i])
	case KindDate, KindTimestamp:
		return hashTemporal(v.Ints[i])
	}
	return nullHash
}

// VecEqual reports whether row i of v and row j of w are equal under
// Compare, NULL equal to NULL (CompareVec).
func VecEqual(v *Vec, i int, w *Vec, j int) bool { return CompareVec(v, i, w, j) == 0 }

// CompareVec orders row i of v against row j of w as Compare orders the
// boxed values, NULL first. Two typed payloads of one kind are compared in
// place; any other pair is boxed and Compared.
func CompareVec(v *Vec, i int, w *Vec, j int) int {
	if v.Kind != w.Kind || v.Vals != nil || w.Vals != nil || v.Pruned || w.Pruned {
		return Compare(v.Value(i), w.Value(j))
	}
	if vn, wn := v.Null(i), w.Null(j); vn || wn {
		switch {
		case vn && wn:
			return 0
		case vn:
			return -1
		}
		return 1
	}
	switch v.Kind {
	case KindDouble:
		return CompareFloats(v.Floats[i], w.Floats[j])
	case KindVarchar:
		return strings.Compare(v.Str(i), w.Str(j))
	}
	return cmpInt(v.Ints[i], w.Ints[j])
}

// Equals reports whether row i of v equals x under Compare, NULL equal to
// NULL, comparing a typed payload in place when x has the vector's kind.
func (v *Vec) Equals(i int, x Value) bool {
	if v.Kind != x.K || v.Vals != nil || v.Pruned || v.Null(i) {
		return Compare(v.Value(i), x) == 0
	}
	switch v.Kind {
	case KindDouble:
		return CompareFloats(v.Floats[i], x.F) == 0
	case KindVarchar:
		return v.Str(i) == x.S
	}
	return v.Ints[i] == x.I
}

// KeySet is a set of distinct keys under the one hash index: a subquery's
// key column or an IN list's literals. Keys holds the non-NULL keys in
// first-seen order, each the first of the values Compare equates with it:
// typed while they share one kind, boxed once a second kind arrives.
// HasNull records a NULL, which is not a key; Min and Max bound the keys
// under Compare. The zero KeySet is empty; probes may run concurrently once
// no one adds.
type KeySet struct {
	Keys     Vec
	HasNull  bool
	Min, Max Value
	index    Index    // a key's one-column KeyHash → its ordinal in Keys
	hs       []uint64 // AddVec's hashes
}

// NewKeySet returns an empty set that holds n keys without growing.
func NewKeySet(n int) *KeySet { return &KeySet{index: NewIndex(n)} }

// Len returns the number of keys.
func (s *KeySet) Len() int { return s.index.Len() }

// AddVec adds the values of v at rows, physical rows: each row's hash comes
// from HashVec and is confirmed against the keys in place.
func (s *KeySet) AddVec(v *Vec, rows []int32) {
	if cap(s.hs) < len(rows) {
		s.hs = make([]uint64, len(rows))
	}
	hs := s.hs[:len(rows)]
	for k := range hs {
		hs[k] = KeyHashSeed
	}
	HashVec(hs, v, rows, nil)
	for k, i := range rows {
		if v.Null(int(i)) {
			s.HasNull = true
			continue
		}
		p := s.index.Probe(hs[k])
		if s.find(&p, v, int(i)) < 0 {
			s.push(v, int(i))
			s.index.Insert(p)
		}
	}
}

// Add adds one value.
func (s *KeySet) Add(x Value) {
	if x.IsNull() {
		s.HasNull = true
		return
	}
	if o, p := s.FindValue(x); o < 0 {
		s.pushValue(x)
		s.index.Insert(p)
	}
}

// Find returns the ordinal of the key equal to row i of v, not NULL, or -1.
func (s *KeySet) Find(v *Vec, i int) int {
	p := s.index.Probe(KeyHashStep(KeyHashSeed, v.HashAt(i)))
	return s.find(&p, v, i)
}

func (s *KeySet) find(p *Probe, v *Vec, i int) int {
	if keys := s.Keys.Ints; keys != nil && v.Ints != nil && v.Kind == s.Keys.Kind && !v.Pruned {
		// Integer payloads of one kind: VecEqual's comparison, inlined.
		x := v.Ints[i]
		for o := s.index.Next(p); o >= 0; o = s.index.Next(p) {
			if keys[o] == x {
				return o
			}
		}
		return -1
	}
	for o := s.index.Next(p); o >= 0; o = s.index.Next(p) {
		if VecEqual(&s.Keys, o, v, i) {
			return o
		}
	}
	return -1
}

// FindValue returns the ordinal of the key equal to x, not NULL, or -1 and
// the walk Index.Insert takes to add x.
func (s *KeySet) FindValue(x Value) (int, Probe) {
	p := s.index.Probe(KeyHashStep(KeyHashSeed, x.Hash()))
	for o := s.index.Next(&p); o >= 0; o = s.index.Next(&p) {
		if s.Keys.Equals(o, x) {
			return o, p
		}
	}
	return -1, p
}

// push appends row i of v to Keys, in place when v's payload is typed and
// of the keys' kind.
func (s *KeySet) push(v *Vec, i int) {
	k := &s.Keys
	if v.Vals != nil || k.Vals != nil || s.Len() > 0 && k.Kind != v.Kind {
		s.pushValue(v.Value(i))
		return
	}
	k.Kind = v.Kind
	switch v.Kind {
	case KindDouble:
		k.Floats = append(k.Floats, v.Floats[i])
	case KindVarchar:
		k.Strs = append(k.Strs, v.Str(i))
	default:
		k.Ints = append(k.Ints, v.Ints[i])
	}
	s.bound()
}

// pushValue appends x to Keys, boxing them first when x is of another kind.
func (s *KeySet) pushValue(x Value) {
	k := &s.Keys
	switch {
	case k.Vals != nil:
		k.Vals = append(k.Vals, x)
	case s.Len() > 0 && k.Kind != x.K:
		vals := make([]Value, s.Len(), 2*s.Len())
		for o := range vals {
			vals[o] = k.Value(o)
		}
		*k = Vec{Kind: KindNull, Vals: append(vals, x)}
	default:
		k.Kind = x.K
		switch x.K {
		case KindDouble:
			k.Floats = append(k.Floats, x.F)
		case KindVarchar:
			k.Strs = append(k.Strs, x.S)
		default:
			k.Ints = append(k.Ints, x.I)
		}
	}
	s.bound()
}

// bound widens Min and Max to the key just appended.
func (s *KeySet) bound() {
	o := s.Len()
	x := s.Keys.Value(o)
	if o == 0 || Compare(x, s.Min) < 0 {
		s.Min = x
	}
	if o == 0 || Compare(x, s.Max) > 0 {
		s.Max = x
	}
}
