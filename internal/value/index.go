package value

// Index is the one hash index of the query path. An entry is an ordinal
// (0, 1, … in insertion order) under its key's KeyHash; the index stores no
// keys, so the caller confirms each candidate Next yields (Compare, or a
// typed equivalent) without a closure, and Inserts at the walk's end when
// none matches. It holds one entry per distinct key: a caller that keeps
// duplicates chains them through a next array of its own. The zero Index is
// empty; probes may run concurrently once no one inserts.
type Index struct {
	// cells is the slots, a power of two of them, each 1 + an entry's
	// ordinal or 0, at most half full; then, per entry the slots can hold,
	// the low and high halves of its hash: one allocation per size.
	cells []uint32
	n     int
}

// Probe is a walk over an index's slots for one hash; once Next returns -1
// it rests on the empty slot a new entry with the hash takes.
type Probe struct {
	h    uint64
	slot int
}

const minIndexSlots = 16

// NewIndex returns an empty index that holds n entries without growing.
func NewIndex(n int) Index {
	size := minIndexSlots
	for size < 2*n {
		size *= 2
	}
	return Index{cells: make([]uint32, 2*size)}
}

// Len returns the number of entries.
func (x *Index) Len() int { return x.n }

// Hash returns entry o's hash.
func (x *Index) Hash(o int) uint64 {
	c := x.cells[len(x.cells)/2+2*o:]
	return uint64(c[0]) | uint64(c[1])<<32
}

// Probe starts a walk for hash h, mixed (the mask keeps FNV's weak low
// bits); without slots the start is out of range, which Next reads as empty.
func (x *Index) Probe(h uint64) Probe {
	m := (h ^ h>>33) * 0xff51afd7ed558ccd
	return Probe{h: h, slot: int((m ^ m>>33) & uint64(len(x.cells)/2-1))}
}

// Next returns the next entry on p's walk whose hash is p's, entries of one
// hash in insertion order, or -1 at the first empty slot.
func (x *Index) Next(p *Probe) int {
	n := len(x.cells) / 2
	for uint(p.slot) < uint(n) {
		o := int(x.cells[p.slot]) - 1
		if o < 0 {
			return -1
		}
		p.slot = (p.slot + 1) & (n - 1)
		if h := x.cells[n+2*o:]; h[0] == uint32(p.h) && h[1] == uint32(p.h>>32) {
			return o
		}
	}
	return -1
}

// Insert adds an entry under p's hash, at the slot p rests on, and returns
// its ordinal. p must be a walk Next ended with no insert since.
func (x *Index) Insert(p Probe) int {
	if 2*(x.n+1) > len(x.cells)/2 {
		x.grow()
		p = x.Probe(p.h)
		for x.Next(&p) >= 0 {
		}
	}
	c := x.cells[len(x.cells)/2+2*x.n:]
	c[0], c[1] = uint32(p.h), uint32(p.h>>32)
	x.n++
	x.cells[p.slot] = uint32(x.n)
	return x.n - 1
}

// Add inserts an entry under h without looking for an equal key.
func (x *Index) Add(h uint64) int {
	p := x.Probe(h)
	for x.Next(&p) >= 0 {
	}
	return x.Insert(p)
}

// grow doubles the slots and places the entries again in ordinal order, so
// a walk still meets one hash's entries in insertion order.
func (x *Index) grow() {
	old := x.cells
	size := max(minIndexSlots, len(old)) // twice the old slot count
	x.cells = make([]uint32, 2*size)
	copy(x.cells[size:], old[len(old)/2:])
	for o := 0; o < x.n; o++ {
		p := x.Probe(x.Hash(o))
		for x.cells[p.slot] != 0 {
			p.slot = (p.slot + 1) & (size - 1)
		}
		x.cells[p.slot] = uint32(o + 1)
	}
}

// Find returns the ordinal of the entry whose value Compares equal to v,
// where x indexes vals (entry o is vals[o], under its one-column KeyHash),
// or -1 and the walk Insert takes to add v.
func (x *Index) Find(vals []Value, v Value) (int, Probe) {
	p := x.Probe(KeyHash([]Value{v}))
	for o := x.Next(&p); o >= 0; o = x.Next(&p) {
		if Compare(vals[o], v) == 0 {
			return o, p
		}
	}
	return -1, p
}

// KeyHashSeed is a key tuple's hash before its first column; KeyHash and
// the executor's typed key loops fold each column's Value.Hash into it with
// KeyHashStep. Value.Hash is equal for values Compare equates, so KeyHash is
// equal for keys KeysEqual equates.
const KeyHashSeed uint64 = 1469598103934665603

// KeyHashStep folds vh, one more key column's Value.Hash, into h.
func KeyHashStep(h, vh uint64) uint64 { return h*fnvPrime64 ^ vh }

// KeyHash is the hash of the key tuple key.
func KeyHash(key []Value) uint64 {
	h := KeyHashSeed
	for _, v := range key {
		h = KeyHashStep(h, v.Hash())
	}
	return h
}

// KeysEqual reports whether two key tuples agree column by column under
// Compare, so NULL equals NULL, as GROUP BY and DISTINCT have it.
func KeysEqual(a, b []Value) bool {
	for k := range a {
		if Compare(a[k], b[k]) != 0 {
			return false
		}
	}
	return true
}
