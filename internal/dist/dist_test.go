package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hana/internal/exec"
	"hana/internal/faults"
	"hana/internal/fed"
	"hana/internal/txn"
	"hana/internal/value"
)

func intRow(vals ...int64) value.Row {
	r := make(value.Row, len(vals))
	for i, v := range vals {
		r[i] = value.NewInt(v)
	}
	return r
}

func testSchema() *value.Schema {
	return value.NewSchema(
		value.Column{Name: "A", Kind: value.KindInt},
		value.Column{Name: "B", Kind: value.KindInt},
	)
}

// seedFleet builds a topology + fleet + transport with table T sharded by
// column A, rows A=0..n-1, B=A*10, committed at cid 1.
func seedFleet(t *testing.T, topo Topology, n int, wire bool) *Local {
	t.Helper()
	workers := make([]*Worker, topo.Shards)
	for i := range workers {
		workers[i] = NewWorker(i, 2, nil)
		workers[i].Register("T", testSchema())
	}
	for i := 0; i < n; i++ {
		row := intRow(int64(i), int64(i*10))
		shard := ShardOf(row[0], topo.Shards)
		for _, owner := range topo.Owners(shard) {
			if err := workers[owner].LoadCommitted("T", shard, []int64{int64(i)}, []value.Row{row.Clone()}, 1); err != nil {
				t.Fatalf("seed: %v", err)
			}
		}
	}
	tr := NewLocal(workers)
	tr.Wire = wire
	return tr
}

// testCaller builds the guarded caller every test coordinator installs:
// Caller is required (the nil-bypass that once ran attempts bare was
// exactly the hole guardcall exists to close). Thresholds are generous so
// failover tests exercise replicas, not the breaker.
func testCaller() fed.Caller {
	return &fed.GuardedCall{
		Health: fed.NewHealth(1000, 0),
		Retry:  faults.RetryPolicy{MaxAttempts: 1},
		Span:   "fragment",
	}
}

func gather(t *testing.T, tr *Local, topo Topology, f *Fragment, fanout int) *GatherResult {
	t.Helper()
	c := &Coordinator{Topo: topo, Transport: tr, Caller: testCaller()}
	res, err := c.Gather(context.Background(), f, fanout)
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	return res
}

// mergedRows boxes a gather's merged stream of batches.
func mergedRows(res *GatherResult) []value.Row {
	return exec.Rel{Batches: res.Batches}.AllRows()
}

func TestGatherScanRestoresSerialOrder(t *testing.T) {
	const n = 10000
	for _, shards := range []int{2, 3, 4} {
		for _, wire := range []bool{false, true} {
			topo := Topology{Shards: shards}
			tr := seedFleet(t, topo, n, wire)
			f := &Fragment{Snapshot: 1, Table: "T", Binding: "T", Where: "MOD(A, 3) = 0"}
			for _, fanout := range []int{0, 1, 2} {
				res := gather(t, tr, topo, f, fanout)
				want := int64(0)
				for i, row := range mergedRows(res) {
					if row[0].I != want {
						t.Fatalf("shards=%d wire=%v fanout=%d: row %d = %v, want A=%d", shards, wire, fanout, i, row, want)
					}
					want += 3
				}
				if res.Len() != (n+2)/3 {
					t.Fatalf("shards=%d: got %d rows, want %d", shards, res.Len(), (n+2)/3)
				}
				if res.Scanned != n {
					t.Fatalf("shards=%d: scanned %d, want %d", shards, res.Scanned, n)
				}
			}
		}
	}
}

func TestSnapshotVisibility(t *testing.T) {
	topo := Topology{Shards: 2, Replicas: 1}
	tr := seedFleet(t, topo, 10, false)
	// Insert a row at cid 5 and delete row seq 0 at cid 7.
	row := intRow(100, 1000)
	shard := ShardOf(row[0], 2)
	w := tr.Worker(topo.Owners(shard)[0])
	w.Insert(42, "T", shard, 100, row)
	if err := w.Prepare(42); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := w.Commit(42, 5); err != nil {
		t.Fatalf("commit: %v", err)
	}
	shard0 := ShardOf(value.NewInt(0), 2)
	w0 := tr.Worker(topo.Owners(shard0)[0])
	w0.Delete(43, "T", shard0, 0)
	if err := w0.Prepare(43); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := w0.Commit(43, 7); err != nil {
		t.Fatalf("commit: %v", err)
	}

	counts := map[uint64]int{1: 10, 5: 11, 7: 10, 9: 10}
	for snap, want := range counts {
		res := gather(t, tr, topo, &Fragment{Snapshot: snap, Table: "T", Binding: "T"}, 0)
		if res.Len() != want {
			t.Fatalf("snapshot %d: got %d rows, want %d", snap, res.Len(), want)
		}
	}
	// An aborted transaction's row stays behind, invisible.
	w.Insert(44, "T", shard, 200, intRow(200, 2000))
	if err := w.Abort(44); err != nil {
		t.Fatalf("abort: %v", err)
	}
	res := gather(t, tr, topo, &Fragment{Snapshot: 99, Table: "T", Binding: "T"}, 0)
	if res.Len() != 10 {
		t.Fatalf("after abort: got %d rows, want 10", res.Len())
	}
}

func TestGatherAggregatePartials(t *testing.T) {
	const n = 1000
	topo := Topology{Shards: 3}
	tr := seedFleet(t, topo, n, true)
	f := &Fragment{
		Snapshot: 1, Table: "T", Binding: "T",
		Agg: &AggFragment{
			GroupBy: []string{"MOD(A, 7)"},
			Aggs: []AggCall{
				{Func: "COUNT"},
				{Func: "SUM", Arg: "B"},
				{Func: "MIN", Arg: "A"},
				{Func: "MAX", Arg: "A"},
				{Func: "COUNT", Arg: "MOD(A, 2)", Distinct: true},
			},
		},
	}
	res := gather(t, tr, topo, f, 0)
	if res.Partial == nil || len(res.Partial.Groups) != 7 {
		t.Fatalf("got %+v, want 7 groups", res.Partial)
	}
	for gi, g := range res.Partial.Groups {
		// Groups sorted by First = first-seen order: group key gi at seq gi.
		if g.Key[0].I != int64(gi) || g.First != int64(gi) {
			t.Fatalf("group %d: key %v first %d", gi, g.Key, g.First)
		}
		var count, sum int64
		minA, maxA := int64(-1), int64(-1)
		for a := int64(gi); a < n; a += 7 {
			count++
			sum += a * 10
			if minA < 0 {
				minA = a
			}
			maxA = a
		}
		check := func(i int, fn string, want value.Value) {
			got, err := g.States[i].Result(fn)
			if err != nil {
				t.Fatalf("group %d state %d: %v", gi, i, err)
			}
			if value.Compare(got, want) != 0 {
				t.Fatalf("group %d %s: got %v, want %v", gi, fn, got, want)
			}
		}
		check(0, "COUNT", value.NewInt(count))
		check(1, "SUM", value.NewInt(sum))
		check(2, "MIN", value.NewInt(minA))
		check(3, "MAX", value.NewInt(maxA))
		check(4, "COUNT", value.NewInt(2)) // distinct A%2 values
	}
}

func TestGatherBroadcastJoin(t *testing.T) {
	topo := Topology{Shards: 2}
	tr := seedFleet(t, topo, 100, true)
	buildCols := []value.Column{
		{Name: "R.K", Kind: value.KindInt},
		{Name: "R.V", Kind: value.KindInt},
	}
	var buildRows []value.Row
	for k := int64(0); k < 100; k += 10 {
		buildRows = append(buildRows, intRow(k, k+1))
		buildRows = append(buildRows, intRow(k, k+2)) // duplicate key: two matches
	}
	f := &Fragment{
		Snapshot: 1, Table: "T", Binding: "T",
		Join: &JoinFragment{
			ProbeKeys: []string{"A"},
			BuildKeys: []string{"R.K"},
			Residual:  "MOD(R.V, 2) = 1",
			BuildCols: buildCols,
			BuildRows: buildRows,
		},
	}
	res := gather(t, tr, topo, f, 0)
	// Each multiple of 10 matches two build rows; residual keeps odd V only.
	var want []value.Row
	for k := int64(0); k < 100; k += 10 {
		v := k + 1
		if v%2 == 0 {
			v = k + 2
		}
		want = append(want, intRow(k, k*10, k, v))
	}
	got := mergedRows(res)
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFailoverToReplica(t *testing.T) {
	topo := Topology{Shards: 3, Replicas: 2}
	tr := seedFleet(t, topo, 300, false)
	tr.Worker(1).Kill()
	c := &Coordinator{Topo: topo, Transport: tr, Caller: testCaller()}
	res, err := c.Gather(context.Background(), &Fragment{Snapshot: 1, Table: "T", Binding: "T"}, 0)
	if err != nil {
		t.Fatalf("gather with dead worker: %v", err)
	}
	if res.Len() != 300 {
		t.Fatalf("got %d rows, want 300", res.Len())
	}
	if res.Failovers == 0 {
		t.Fatal("expected at least one failover")
	}
	for i, row := range mergedRows(res) {
		if row[0].I != int64(i) {
			t.Fatalf("row %d out of order: %v", i, row)
		}
	}

	// Two dead workers with Replicas=2 must fail cleanly, not hang or lie.
	tr.Worker(2).Kill()
	if _, err := c.Gather(context.Background(), &Fragment{Snapshot: 1, Table: "T", Binding: "T"}, 0); err == nil {
		t.Fatal("expected failure with two dead workers")
	}
	tr.Worker(1).Revive()
	tr.Worker(2).Revive()
	if res, err := c.Gather(context.Background(), &Fragment{Snapshot: 1, Table: "T", Binding: "T"}, 0); err != nil || res.Len() != 300 {
		t.Fatalf("after revive: %v, %+v", err, res)
	}
}

func TestGuardedCallerBreaker(t *testing.T) {
	topo := Topology{Shards: 2, Replicas: 1}
	tr := seedFleet(t, topo, 10, false)
	tr.Worker(1).Kill()
	health := fed.NewHealth(2, 0)
	c := &Coordinator{
		Topo:      topo,
		Transport: tr,
		Caller:    &fed.GuardedCall{Health: health, Retry: faults.RetryPolicy{MaxAttempts: 1}, Span: "fragment"},
	}
	frag := &Fragment{Snapshot: 1, Table: "T", Binding: "T"}
	for i := 0; i < 3; i++ {
		if _, err := c.Gather(context.Background(), frag, 0); err == nil {
			t.Fatal("expected failure with dead sole replica")
		}
	}
	_, err := c.Gather(context.Background(), frag, 0)
	if !errors.Is(err, faults.ErrCircuitOpen) {
		t.Fatalf("expected breaker-open error, got %v", err)
	}
}

func TestFragmentWireRoundTrip(t *testing.T) {
	f := &Fragment{
		Query: 7, Shard: 2, Snapshot: 99, Width: 4,
		Table: "LINEITEM", Binding: "L", Where: "L.L_QUANTITY < 24", Needed: []bool{true, false, true},
		Agg: &AggFragment{
			GroupBy: []string{"L.L_RETURNFLAG", "L.L_LINESTATUS"},
			Aggs:    []AggCall{{Func: "COUNT"}, {Func: "SUM", Arg: "L.L_QUANTITY"}, {Func: "COUNT", Arg: "L.L_ORDERKEY", Distinct: true}},
		},
	}
	got, err := DecodeFragment(f.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", f, got)
	}
	j := &Fragment{
		Table: "ORDERS", Binding: "O",
		Join: &JoinFragment{
			ProbeKeys: []string{"O.O_CUSTKEY"},
			BuildKeys: []string{"C.C_CUSTKEY"},
			Residual:  "C.C_NAME <> O.O_COMMENT",
			BuildCols: []value.Column{{Name: "C.C_CUSTKEY", Kind: value.KindInt}, {Name: "C.C_NAME", Kind: value.KindVarchar, Nullable: true}},
			BuildRows: []value.Row{{value.NewInt(1), value.NewString("x")}},
		},
	}
	got, err = DecodeFragment(j.Encode())
	if err != nil {
		t.Fatalf("decode join: %v", err)
	}
	if !reflect.DeepEqual(j, got) {
		t.Fatalf("join round trip mismatch:\n%+v\n%+v", j, got)
	}
	// Truncated payloads error instead of panicking.
	enc := f.Encode()
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := DecodeFragment(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d silently accepted", cut)
		}
	}
	// A needed mask the payload does not back is a decode error; one longer
	// or shorter than the table is a classified error at the worker.
	if _, err := DecodeFragment([]byte{fragmentWireVersion, 0, 0, 0, 0, 0, 0, 0, 5, 1}); err == nil {
		t.Fatal("needed mask of 5 columns over 1 byte silently accepted")
	}
	w := NewWorker(0, 1, nil)
	w.Register("T", testSchema())
	for _, mask := range [][]bool{{true, true, true}, {true}} {
		err = w.Execute(context.Background(), &Fragment{Table: "T", Binding: "T", Where: "T.B > 0", Needed: mask}, func(*Chunk) error { return nil })
		if !faults.IsFatal(err) {
			t.Fatalf("needed mask of %d columns on a 2-column table: %v", len(mask), err)
		}
	}
}

func TestChunkWireRoundTrip(t *testing.T) {
	// Every accumulator field set to a value its zero would not reproduce;
	// the sums hold two partials each.
	plain := &exec.AggState{Count: 2, Sum: exactSum(1e16, 14.5), SumI: 14, IntOnly: true, Min: value.NewInt(5), Max: value.NewDouble(9.5), SumSq: exactSum(115.25, 1e-300), HasVal: true}
	distinct := &exec.AggState{Count: 2, Min: value.NewString("a"), Max: value.NewString("b"), HasVal: true,
		Distinct: true, Order: []value.Value{value.NewString("a"), value.NewString("b")}}
	p := &exec.AggPartial{}
	p.Append(&exec.AggGroup{First: 3, Key: value.Row{value.NewString("g"), value.Null}, States: []*exec.AggState{plain, distinct}})
	ch := &Chunk{
		Shard: 1, Worker: 2, Scanned: 77,
		Seqs: []int64{3, 9},
		Batch: &value.Batch{N: 2, Cols: []value.Vec{
			{Kind: value.KindInt, Ints: []int64{1, 3}},
			{Kind: value.KindInt, Ints: []int64{2, 4}},
		}},
		Partial: p,
	}
	got, err := DecodeChunk(ch.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, ch) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ch)
	}
	// A decoded distinct state still knows what it has counted.
	other := exec.NewAggState("COUNT", true)
	other.Add(value.NewString("b"))
	other.Add(value.NewString("c"))
	merged := got.Partial.Groups[0].States[1]
	merged.Merge(other)
	if v, _ := merged.Result("COUNT"); v.I != 3 {
		t.Fatalf("distinct merge after decode: %+v", merged)
	}
	// Truncated payloads error instead of panicking.
	enc := ch.Encode()
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeChunk(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d silently accepted", cut)
		}
	}
	// A sum has at most one partial per bit position of a float64, however
	// many bytes follow the count.
	long := []byte{chunkWireVersion, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 2}
	long = binary.AppendUvarint(long, exec.MaxPartials+1)
	long = append(long, make([]byte, 8*(exec.MaxPartials+1)+64)...)
	if _, err := DecodeChunk(long); err == nil || !strings.Contains(err.Error(), "partials") {
		t.Fatalf("a sum of %d partials: %v", exec.MaxPartials+1, err)
	}
}

// TestDecodeChunkRejectsSeqRowMismatch: a chunk with three sequences and one
// row must not decode, or the merge would index rows by the sequence cursor
// past the batch.
func TestDecodeChunkRejectsSeqRowMismatch(t *testing.T) {
	b := []byte{chunkWireVersion, 0, 0, 0}                // shard, worker, scanned
	b = append(b, 3, 2, 4, 6)                             // three sequences: 1, 2, 3 (zig-zag)
	b = append(b, 1, 1, byte(value.KindInt), 1, 1)        // a batch of one shipped INT column
	b = append(b, formInts, 1, 0, 7, 0, 0, 0, 0, 0, 0, 0) // one row, no NULLs: 7
	b = append(b, 0)                                      // no partial
	if _, err := DecodeChunk(b); err == nil || !strings.Contains(err.Error(), "1 rows for 3 sequences") {
		t.Fatalf("mismatched chunk decoded: %v", err)
	}
	// The bytes are what the codec itself writes for such a chunk, so the
	// mismatch is the only thing wrong with them.
	bad := &Chunk{Seqs: []int64{1, 2, 3}, Batch: &value.Batch{N: 1, Cols: []value.Vec{{Kind: value.KindInt, Ints: []int64{7}}}}}
	if !bytes.Equal(bad.Encode(), b) {
		t.Fatalf("hand-built bytes drifted from the codec:\n%v\n%v", b, bad.Encode())
	}
}

// A scan chunk ships its batch's live rows column by column: decoded, every
// row boxes to what the worker's batch held, pruned columns stay pruned and
// the dictionary shrinks to the entries the live rows use.
func TestScanChunkWireRoundTrip(t *testing.T) {
	b, seqs := scanSeedBatch()
	ch := &Chunk{Shard: 1, Worker: 2, Scanned: 130, Seqs: seqs, Batch: b}
	got, err := DecodeChunk(ch.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Seqs, seqs) || got.Scanned != 130 || got.Batch.Len() != len(seqs) {
		t.Fatalf("decoded %d sequences, %d rows, scanned %d", len(got.Seqs), got.Batch.Len(), got.Scanned)
	}
	want := exec.Rel{Batches: []*value.Batch{b}}.AllRows()
	if rows := (exec.Rel{Batches: []*value.Batch{got.Batch}}).AllRows(); !reflect.DeepEqual(rows, want) {
		t.Fatalf("decoded rows differ:\n got %v\nwant %v", rows, want)
	}
	if v := got.Batch.Cols[2]; !v.Sorted || !reflect.DeepEqual(v.Dict, []string{"AIR", "MAIL", "SHIP"}) {
		t.Fatalf("sorted dictionary shipped as %q (sorted %v)", v.Dict, v.Sorted)
	}
	if !got.Batch.Cols[5].Pruned || got.Batch.Cols[6].Vals == nil {
		t.Fatal("pruned or boxed column lost its form")
	}
	enc := ch.Encode()
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeChunk(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d silently accepted", cut)
		}
	}
}

// Batch bytes from another node are checked before the merge indexes them:
// each rule of the layout broken alone is a decode error, not a panic.
func TestDecodeChunkRejectsHostileBatches(t *testing.T) {
	for _, bad := range hostileBatchChunks() {
		if _, err := DecodeChunk(bad.bytes); err == nil || !strings.Contains(err.Error(), bad.err) {
			t.Errorf("%s: %v, want an error naming %q", bad.name, err, bad.err)
		}
	}
}

func TestTopologyOwners(t *testing.T) {
	topo := Topology{Shards: 4, Replicas: 2}
	for s := 0; s < 4; s++ {
		owners := topo.Owners(s)
		want := []int{s, (s + 1) % 4}
		if !reflect.DeepEqual(owners, want) {
			t.Fatalf("shard %d owners %v, want %v", s, owners, want)
		}
	}
	if got := (Topology{Shards: 1}).ReplicaCount(); got != 1 {
		t.Fatalf("single shard replica count %d", got)
	}
	if (Topology{Shards: 1}).Enabled() || !(Topology{Shards: 2}).Enabled() {
		t.Fatal("Enabled thresholds wrong")
	}
}

func TestShardOfStable(t *testing.T) {
	if ShardOf(value.Null, 4) != 0 {
		t.Fatal("NULL must land on shard 0")
	}
	if ShardOf(value.NewInt(42), 1) != 0 {
		t.Fatal("single shard must be 0")
	}
	counts := make([]int, 4)
	for i := int64(0); i < 4000; i++ {
		counts[ShardOf(value.NewInt(i), 4)]++
	}
	for s, c := range counts {
		if c < 500 {
			t.Fatalf("shard %d badly skewed: %d/4000 (%v)", s, c, counts)
		}
	}
}

func TestWorkerFaultSites(t *testing.T) {
	inj := faults.New(1)
	inj.FailN("dist.worker.0.exec", 1)
	w := NewWorker(0, 1, inj)
	w.Register("T", testSchema())
	err := w.Execute(context.Background(), &Fragment{Table: "T", Binding: "T", Snapshot: 1}, func(*Chunk) error { return nil })
	if err == nil || !faults.IsTransient(err) {
		t.Fatalf("expected injected transient error, got %v", err)
	}
}

func TestPrepareFailureVotesNo(t *testing.T) {
	w := NewWorker(3, 1, nil)
	w.Register("T", testSchema())
	w.Insert(9, "MISSING", 0, 1, intRow(1, 2))
	if err := w.Prepare(9); err == nil {
		t.Fatal("prepare against unregistered table must vote no")
	}
	w.Kill()
	if err := w.Prepare(9); err == nil {
		t.Fatal("dead worker must vote no")
	}
	if w.Name() != "dist:worker:3" {
		t.Fatalf("participant name %q", w.Name())
	}
}

func TestEmptyShardStreams(t *testing.T) {
	topo := Topology{Shards: 2, Replicas: 1}
	workers := []*Worker{NewWorker(0, 1, nil), NewWorker(1, 1, nil)}
	for _, w := range workers {
		w.Register("T", testSchema())
	}
	tr := NewLocal(workers)
	res := gather(t, tr, topo, &Fragment{Snapshot: 1, Table: "T", Binding: "T"}, 0)
	if res.Len() != 0 || res.Batches != nil || res.Scanned != 0 {
		t.Fatalf("empty fleet returned %+v", res)
	}
	// Aggregate over empty shards: zero groups (the engine's post-merge
	// handles the empty-global-group row).
	res = gather(t, tr, topo, &Fragment{Snapshot: 1, Table: "T", Binding: "T",
		Agg: &AggFragment{Aggs: []AggCall{{Func: "COUNT"}}}}, 0)
	if len(res.Partial.Groups) != 0 {
		t.Fatalf("empty aggregate returned %+v", res.Partial)
	}
}

func TestLoadCommittedIdempotent(t *testing.T) {
	w := NewWorker(0, 1, nil)
	w.Register("T", testSchema())
	rows := []value.Row{intRow(5, 50)}
	for i := 0; i < 3; i++ {
		if err := w.LoadCommitted("T", 0, []int64{5}, rows, 1); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}
	if got := w.ShardRowCount("T", 0, 1); got != 1 {
		t.Fatalf("idempotent load broken: %d rows", got)
	}

	// Two transactions write in sequence order and commit in the reverse of
	// it, a third deletes, and the loaded rows are delivered once more: at
	// every snapshot the stream is the serial scan, ascending.
	w.Insert(1, "T", 0, 7, intRow(7, 70))
	w.Insert(2, "T", 0, 9, intRow(9, 90))
	for _, c := range [][2]uint64{{2, 2}, {1, 3}} {
		if err := w.Commit(c[0], c[1]); err != nil {
			t.Fatalf("commit of tid %d: %v", c[0], err)
		}
	}
	w.Delete(3, "T", 0, 7)
	if err := w.Commit(3, 4); err != nil {
		t.Fatalf("commit of tid 3: %v", err)
	}
	if err := w.LoadCommitted("T", 0, []int64{5, 7, 9}, []value.Row{intRow(5, 50), intRow(7, 70), intRow(9, 90)}, 9); err != nil {
		t.Fatalf("re-delivery: %v", err)
	}
	for snap, want := range map[uint64][]int64{1: {5}, 2: {5, 9}, 3: {5, 7, 9}, 4: {5, 9}, 9: {5, 9}} {
		var got []int64
		err := w.Execute(context.Background(), &Fragment{Snapshot: snap, Table: "T", Binding: "T"}, func(ch *Chunk) error {
			if ch.Batch == nil {
				return nil
			}
			for i, seq := range ch.Seqs {
				row := make(value.Row, 2)
				ch.Batch.FillRow(ch.Batch.RowIndex(i), row)
				if !reflect.DeepEqual(row, intRow(seq, seq*10)) {
					t.Fatalf("snapshot %d: sequence %d carries %v", snap, seq, row)
				}
			}
			got = append(got, ch.Seqs...)
			return nil
		})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %d: sequences %v (%v), want %v", snap, got, err, want)
		}
	}
}

// A replica only appends: a write at or below its last sequence is refused,
// and the worker votes no on the transaction that made it. The transaction's
// other rows stay, aborted: invisible at every snapshot and to the count.
func TestReplicaRefusesSequenceBelowItsLast(t *testing.T) {
	w := NewWorker(0, 1, nil)
	w.Register("T", testSchema())
	if err := w.LoadCommitted("T", 0, []int64{5}, []value.Row{intRow(5, 50)}, 1); err != nil {
		t.Fatal(err)
	}
	w.Insert(2, "T", 0, 8, intRow(8, 80))
	for _, seq := range []int64{8, 6} {
		w.Insert(2, "T", 0, seq, intRow(seq, seq*10))
	}
	err := w.Prepare(2)
	if err == nil || !faults.IsFatal(err) || !strings.Contains(err.Error(), "sequence 8 is not above") {
		t.Fatalf("prepare after a refused write: %v", err)
	}
	if err := w.Load("T", 0, []int64{7}, []value.Row{intRow(7, 70)}, txn.Committed(1, 1)); err == nil {
		t.Fatal("load below the last sequence accepted")
	}
	if err := w.Abort(2); err != nil {
		t.Fatal(err)
	}
	if err := w.Prepare(2); err != nil {
		t.Fatalf("abort must forget the refusal: %v", err)
	}
	// A sequence is a partition row id in 32 bits.
	w.Insert(3, "T", 0, 1<<32, intRow(1, 10))
	if err := w.Prepare(3); err == nil || !faults.IsFatal(err) {
		t.Fatalf("prepare after a sequence past 32 bits: %v", err)
	}
	if err := w.Abort(3); err != nil {
		t.Fatal(err)
	}
	for _, snap := range []uint64{0, 1, 2, 1 << 62, ^uint64(0)} {
		var got []int64
		err := w.Execute(context.Background(), &Fragment{Snapshot: snap, Table: "T", Binding: "T"}, func(ch *Chunk) error {
			got = append(got, ch.Seqs...)
			return nil
		})
		want := []int64{5}
		if snap == 0 {
			want = nil
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %d: sequences %v (%v), want %v", snap, got, err, want)
		}
		if n := w.ShardRowCount("T", 0, snap); n != len(want) {
			t.Fatalf("snapshot %d: ShardRowCount %d, want %d", snap, n, len(want))
		}
	}
}

func TestWorkerTablesListing(t *testing.T) {
	w := NewWorker(0, 1, nil)
	w.Register("b", testSchema())
	w.Register("A", testSchema())
	if got := w.Tables(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Fatalf("tables %v", got)
	}
	w.Drop("a")
	if got := w.Tables(); !reflect.DeepEqual(got, []string{"B"}) {
		t.Fatalf("tables after drop %v", got)
	}
}

func TestChunkEmissionOrderWithinWorker(t *testing.T) {
	// Many morsels on one shard: sequences must still come back ascending.
	w := NewWorker(0, 4, nil)
	w.Register("T", testSchema())
	n := 3*4096 + 17
	seqs := make([]int64, n)
	rows := make([]value.Row, n)
	for i := 0; i < n; i++ {
		seqs[i] = int64(i)
		rows[i] = intRow(int64(i), int64(i%5))
	}
	if err := w.LoadCommitted("T", 0, seqs, rows, 1); err != nil {
		t.Fatalf("load: %v", err)
	}
	var got []int64
	err := w.Execute(context.Background(), &Fragment{Snapshot: 1, Table: "T", Binding: "T", Where: "B = 2", Width: 4}, func(ch *Chunk) error {
		got = append(got, ch.Seqs...)
		return nil
	})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("sequence regression at %d: %d after %d", i, got[i], got[i-1])
		}
	}
	want := 0
	for i := 0; i < n; i++ {
		if i%5 == 2 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("got %d rows, want %d", len(got), want)
	}
}

// countingCaller wraps a Caller and counts Call invocations: the
// regression guard for the removed nil-Caller bypass — every worker
// attempt, failover retries included, must route through the guard.
type countingCaller struct {
	inner fed.Caller
	mu    sync.Mutex
	calls int
	sites map[string]int
}

func (c *countingCaller) Call(ctx context.Context, target, kind, site string, fn func() error) error {
	c.mu.Lock()
	c.calls++
	if c.sites == nil {
		c.sites = map[string]int{}
	}
	c.sites[site]++
	c.mu.Unlock()
	return c.inner.Call(ctx, target, kind, site, fn)
}

func TestEveryAttemptRoutesThroughCaller(t *testing.T) {
	topo := Topology{Shards: 3, Replicas: 2}
	tr := seedFleet(t, topo, 300, false)
	tr.Worker(1).Kill()
	cc := &countingCaller{inner: testCaller()}
	c := &Coordinator{Topo: topo, Transport: tr, Caller: cc}
	res, err := c.Gather(context.Background(), &Fragment{Snapshot: 1, Table: "T", Binding: "T"}, 0)
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	if cc.calls != res.Fragments {
		t.Fatalf("attempts bypassed the caller: %d Call invocations, %d fragments", cc.calls, res.Fragments)
	}
	if res.Failovers == 0 {
		t.Fatal("expected a failover with a dead primary")
	}
	for site := range cc.sites {
		if !strings.HasPrefix(site, "dist.worker.") || !strings.HasSuffix(site, ".run") {
			t.Fatalf("unexpected fault site %q", site)
		}
	}
}

func TestCommitFaultSiteRetries(t *testing.T) {
	inj := faults.New(1)
	w := NewWorker(0, 1, inj)
	w.Register("T", testSchema())
	w.Insert(7, "T", 0, 1, intRow(1, 10))
	if err := w.Prepare(7); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	inj.FailN("dist.worker.0.commit", 1)
	err := w.Commit(7, 2)
	if err == nil || !faults.IsTransient(err) {
		t.Fatalf("expected injected transient commit error, got %v", err)
	}
	// The row stays stamped by the transaction through the failed delivery;
	// re-delivering the decision commits it.
	if err := w.Commit(7, 2); err != nil {
		t.Fatalf("commit retry: %v", err)
	}
	if got := w.ShardRowCount("T", 0, 2); got != 1 {
		t.Fatalf("rows visible after commit retry = %d, want 1", got)
	}
}

func TestChunkFaultSiteCutsStream(t *testing.T) {
	inj := faults.New(1)
	w := NewWorker(0, 1, inj)
	w.Register("T", testSchema())
	if err := w.LoadCommitted("T", 0, []int64{1, 2}, []value.Row{intRow(1, 10), intRow(2, 20)}, 1); err != nil {
		t.Fatalf("load: %v", err)
	}
	frag := &Fragment{Snapshot: 1, Table: "T", Binding: "T"}
	inj.FailN("dist.worker.0.chunk", 1)
	err := w.Execute(context.Background(), frag, func(*Chunk) error { return nil })
	if err == nil || !faults.IsTransient(err) {
		t.Fatalf("expected injected mid-stream error, got %v", err)
	}
	// A rerun after the schedule drains streams the full shard.
	var n int
	if err := w.Execute(context.Background(), frag, func(ch *Chunk) error { n += len(ch.Seqs); return nil }); err != nil {
		t.Fatalf("clean rerun: %v", err)
	}
	if n != 2 {
		t.Fatalf("rerun rows = %d, want 2", n)
	}
}

func TestRunFaultSiteRetriesSameOwner(t *testing.T) {
	topo := Topology{Shards: 2, Replicas: 1}
	tr := seedFleet(t, topo, 20, false)
	inj := faults.New(3)
	inj.SetSleep(func(time.Duration) {})
	inj.FailN("dist.worker.1.run", 1)
	c := &Coordinator{Topo: topo, Transport: tr, Caller: &fed.GuardedCall{
		Health: fed.NewHealth(1000, 0),
		Retry:  faults.RetryPolicy{MaxAttempts: 2, Sleep: func(time.Duration) {}},
		Faults: inj,
		Span:   "fragment",
	}}
	res, err := c.Gather(context.Background(), &Fragment{Snapshot: 1, Table: "T", Binding: "T"}, 0)
	if err != nil {
		t.Fatalf("gather through injected run fault: %v", err)
	}
	if res.Len() != 20 {
		t.Fatalf("rows = %d, want 20", res.Len())
	}
	// The retry happens inside the guarded call against the same owner: no
	// replica switch-over is recorded.
	if res.Failovers != 0 {
		t.Fatalf("in-call retry must not count as failover, got %d", res.Failovers)
	}
}

// cannedTransport answers every fragment with the same chunks: what a
// faulty or hostile worker could stream.
type cannedTransport struct{ chunks []*Chunk }

func (c cannedTransport) Workers() int { return 2 }

func (c cannedTransport) Run(_ context.Context, _ int, _ *Fragment, sink ChunkSink) error {
	for _, ch := range c.chunks {
		if err := sink(ch); err != nil {
			return err
		}
	}
	return nil
}

// The merge indexes every chunk's rows by its sequences: a stream that does
// not carry them in one batch shape is an error, not a panic.
func TestGatherRejectsChunksTheMergeCannotIndex(t *testing.T) {
	ints := func(seqs ...int64) *value.Batch {
		return &value.Batch{N: len(seqs), Cols: []value.Vec{{Kind: value.KindInt, Ints: seqs}}}
	}
	scan := &Fragment{Snapshot: 1, Table: "T", Binding: "T"}
	join := &Fragment{Snapshot: 1, Table: "T", Binding: "T", Join: &JoinFragment{}}
	for _, tc := range []struct {
		name   string
		f      *Fragment
		chunks []*Chunk
	}{
		{"scan sequences without a batch", scan, []*Chunk{{Seqs: []int64{1}}}},
		{"batch shorter than its sequences", scan, []*Chunk{{Seqs: []int64{1, 2}, Batch: ints(1)}}},
		{"batches of two shapes", scan, []*Chunk{{Seqs: []int64{1}, Batch: ints(1)}, {Seqs: []int64{2}, Batch: &value.Batch{N: 1, Cols: []value.Vec{{Kind: value.KindDouble, Floats: []float64{2}}}}}}},
		{"join sequences without a batch", join, []*Chunk{{Seqs: []int64{1}, Batch: ints(1)}, {Seqs: []int64{2}}}},
	} {
		c := &Coordinator{Topo: Topology{Shards: 2, Replicas: 1}, Transport: cannedTransport{tc.chunks}, Caller: testCaller()}
		if _, err := c.Gather(context.Background(), tc.f, 0); err == nil {
			t.Errorf("%s: gathered", tc.name)
		}
	}
}
