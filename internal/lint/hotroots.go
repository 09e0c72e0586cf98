package lint

// HotRoots seeds the hot-function set: the morsel/operator inner loops the
// executor drives per row or per morsel, plus the per-row leaf helpers that
// interface dispatch hides from the syntactic call resolver (Expr.Eval is an
// interface call, so each implementation must be rooted explicitly —
// reachability only grows the set downward from here).
//
// Keys use FuncRef.key() form: "importpath.Func" or
// "importpath.Recv.Method". An entry that matches nothing is inert (the
// fixture corpus, for example, never contains these), and `hanalint -hot`
// prints the resolved set plus any unmatched roots so the list can be
// audited when operators are added or renamed. Functions outside this
// closure can opt in with a `//hana:hotpath` directive on the declaration's
// doc comment.
var HotRoots = []string{
	// exec: the operators, each one call whose loops touch every input row:
	// Block.Finish (HAVING, projection, DISTINCT, ORDER BY, LIMIT, one batch
	// at a time) with its DISTINCT, sort and gather loops, Filter, the join
	// and the aggregate with its morsel body and the finaliser that writes
	// its output vectors.
	"hana/internal/exec.Block.Finish",
	"hana/internal/exec.distinct",
	"hana/internal/exec.sortOrder",
	"hana/internal/exec.gatherOrder",
	"hana/internal/exec.Filter",
	"hana/internal/exec.ParallelHashAggregate.Run",
	"hana/internal/exec.aggregateMorsel",
	"hana/internal/exec.AggPartial.Finalize",
	// exec: the typed aggregate's morsel body (groupby.go) — its key and
	// argument phases, the partial's index and slab — and the calls the
	// syntactic resolver cannot follow through a field or an element: the
	// dictionary memo, a key's boxing, the state folds and Merge.
	"hana/internal/exec.groupBy.keyPhase",
	"hana/internal/exec.groupBy.argPhase",
	"hana/internal/exec.groupBy.lookup",
	"hana/internal/exec.keyCol.value",
	"hana/internal/exec.dictMemo.use",
	"hana/internal/exec.AggPartial.newGroup",
	"hana/internal/exec.AggPartial.Merge",
	"hana/internal/exec.AggState.Add",
	"hana/internal/exec.AggState.foldInt",
	"hana/internal/exec.AggState.foldFloat",
	"hana/internal/expr.CompileNum",
	"hana/internal/exec.HashJoin",
	"hana/internal/exec.hashKeys",
	"hana/internal/exec.buildSide.link",
	"hana/internal/exec.buildSide.find",
	"hana/internal/exec.Pool.Run",
	// engine: the one table scan — morsel cutting, batch decode, MVCC
	// selection — and the extended-storage batch reader under it.
	"hana/internal/engine.planner.scan",
	"hana/internal/diskstore.Table.ReadBatch",
	// colstore: column scans and the stats loops the planner runs per query.
	"hana/internal/colstore.Column.Scan",
	"hana/internal/colstore.Column.DistinctCount",
	"hana/internal/colstore.Column.MinMax",
	"hana/internal/colstore.Table.Scan",
	"hana/internal/colstore.Table.ScanColumns",
	// colstore: vector decode — FillVec dispatches to the per-encoding fill
	// loops, which run once per row of every scanned morsel.
	"hana/internal/colstore.Column.FillVec",
	"hana/internal/colstore.Table.ReadBatch",
	// expr: every Eval implementation runs once per row per node.
	"hana/internal/expr.ColRef.Eval",
	"hana/internal/expr.Literal.Eval",
	"hana/internal/expr.Param.Eval",
	"hana/internal/expr.BinOp.Eval",
	"hana/internal/expr.UnOp.Eval",
	"hana/internal/expr.IsNull.Eval",
	"hana/internal/expr.Between.Eval",
	"hana/internal/expr.In.Eval",
	"hana/internal/expr.Like.Eval",
	"hana/internal/expr.CaseWhen.Eval",
	"hana/internal/expr.Truthy",
	// expr: vectorized predicate kernels. compileTri roots the kernel
	// closures (they are declared inside the compile* helpers); applyKernels
	// and SelectBatch drive them per row of every batch.
	"hana/internal/expr.SelectBatch",
	"hana/internal/expr.EvalBatch",
	"hana/internal/expr.applyKernels",
	"hana/internal/expr.compileTri",
	// value: per-row comparison and hashing leaves, the hash index's included.
	"hana/internal/value.Index.Next",
	"hana/internal/value.Index.Insert",
	"hana/internal/value.Compare",
	"hana/internal/value.Value.Hash",
	"hana/internal/value.KeyHash",
	"hana/internal/value.KeysEqual",
	// value: the per-vector hash, equality and order the aggregate's key
	// phase, the hash join, DISTINCT, ORDER BY and the key set share, and
	// the key set's build and probes (exec.KeySet builds a subquery's set
	// one batch at a time; the IN kernel probes it per row).
	"hana/internal/value.HashVec",
	"hana/internal/value.Vec.HashAt",
	"hana/internal/value.VecEqual",
	"hana/internal/value.CompareVec",
	"hana/internal/value.Vec.Equals",
	"hana/internal/value.KeySet.AddVec",
	"hana/internal/value.KeySet.Add",
	"hana/internal/value.KeySet.Find",
	"hana/internal/value.KeySet.FindValue",
	"hana/internal/exec.KeySet",
	// value: batch access leaves — FillRow/Value run once per row whenever a
	// batch crosses back into the row world — the one writer of values into
	// typed vectors (BatchFromRows and the aggregate's output), and the one
	// typed gather the join's output, the sort's output and the
	// coordinator's merge copy through.
	"hana/internal/value.Batch.FillRow",
	"hana/internal/value.Batch.MaterializeRows",
	"hana/internal/value.Vec.Value",
	"hana/internal/value.BatchFromRows",
	"hana/internal/value.Vec.Set",
	"hana/internal/value.GatherFrom",
	// dist: the exchange hot path. Execute parses shipped SQL once per
	// fragment — not hot — so only code that runs per shard row is rooted:
	// the scan's morsel body (aggregate and join fragments then run exec's
	// rooted operators). Chunk and fragment encode/decode run per exchange
	// unit on the wire transport, and the coordinator merge loops run once
	// per merged row or group: the merge order (merger.next) and the
	// batches it gathers (value.GatherFrom, rooted above).
	"hana/internal/dist.Worker.scanMorsel",
	"hana/internal/dist.Chunk.Encode",
	"hana/internal/dist.DecodeChunk",
	"hana/internal/dist.Fragment.Encode",
	"hana/internal/dist.DecodeFragment",
	"hana/internal/dist.merger.next",
	"hana/internal/dist.merger.batches",
	"hana/internal/dist.mergePartials",
	// hive: the one row-record reader every map stage, the join reducer and
	// the driver-side read run once per record.
	"hana/internal/hive.rowReader.read",
	"hana/internal/hive.rowReader.decode",
}
