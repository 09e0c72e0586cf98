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
	// at a time), Filter, the two joins and the aggregate with its morsel
	// body.
	"hana/internal/exec.Block.Finish",
	"hana/internal/exec.Filter",
	"hana/internal/exec.NestedLoopJoin",
	"hana/internal/exec.ParallelHashAggregate.Run",
	"hana/internal/exec.aggregateMorsel",
	"hana/internal/exec.HashJoinParallel",
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
	// value: per-row comparison and hashing leaves.
	"hana/internal/value.Compare",
	"hana/internal/value.Value.Hash",
	"hana/internal/value.Equal",
	"hana/internal/value.Row.Hash",
	"hana/internal/value.Row.EqualAt",
	// value: batch access leaves — FillRow/Value run once per row whenever a
	// batch crosses back into the row world.
	"hana/internal/value.Batch.FillRow",
	"hana/internal/value.Batch.MaterializeRows",
	"hana/internal/value.Vec.Value",
	"hana/internal/value.BatchFromRows",
	// dist: the exchange hot path. Execute parses shipped SQL once per
	// fragment — not hot — so only code that runs per shard row is rooted:
	// the scan's morsel body (aggregate and join fragments then run exec's
	// rooted operators). Chunk and fragment encode/decode run per exchange
	// unit on the wire transport, and the coordinator merge loops run once
	// per shipped row/group.
	"hana/internal/dist.Worker.scanMorsel",
	"hana/internal/dist.Chunk.Encode",
	"hana/internal/dist.DecodeChunk",
	"hana/internal/dist.Fragment.Encode",
	"hana/internal/dist.DecodeFragment",
	"hana/internal/dist.mergeStreams",
	"hana/internal/dist.mergePartials",
}
