package lint

// LockRanks is the canonical lock ranking for the repository: a lock may
// only be acquired while holding locks of strictly lower rank. The
// lockorder analyzer enforces this over the global lock-acquisition graph
// derived from the interprocedural summaries (see lockorder.go);
// `make lint-graph` dumps the observed graph as DOT.
//
// Keys are normalized lock classes — "pkg.Type.field" for a struct-field
// mutex, "pkg.var" for a package-level one, with the short package name.
// Ranks are sparse (tens apart) so new classes can be slotted in without
// renumbering. Every class that appears as a node of the observed
// production graph is ranked here; the analyzer reports any edge that
// pairs a ranked class with an unranked one, so a new lock that starts
// nesting with existing ones forces an entry (and a conscious ordering
// decision) in this file.
//
// The ordering follows the system's layering, outermost first:
//
//	engine (query/DDL entry) → catalog → txn (commit machinery) →
//	storage (diskstore/colstore/rowstore) → streaming/federation →
//	hive/hdfs (big-data side) → faults (infrastructure leaves)
//
// A high-ranked (inner) lock must never be held while calling back up
// into a lower-ranked (outer) subsystem. In particular, locks below the
// storage band are acquired around remote or simulated-remote round
// trips — holding any local metadata lock across those calls is exactly
// the nesting this ranking exists to forbid (cf. hive.Metastore.mu,
// which once nested hdfs.Cluster.mu from CreateTable/DropTable).
//
// Classes that appear only in the lint fixture corpus (testdata/src) are
// ranked in their own band at the bottom: the corpus shares this module's
// import-path namespace, so they live in the same map, far above every
// production rank.
var LockRanks = map[string]int{
	// ---- engine layer (outermost) ----
	"engine.Engine.spMu":    90, // savepoint barrier: taken before every other engine lock
	"engine.Engine.mu":      100,
	"engine.storedTable.mu": 140,
	"catalog.Catalog.mu":    180,

	// ---- transaction layer ----
	"txn.Manager.mu": 200,
	"txn.Log.mu":     260,

	// dist workers sit below the engine/txn layers: the engine mirrors
	// writes into workers while holding storedTable.mu (insert/delete path)
	// and registers tables under Engine.mu (DDL path), and 2PC phase
	// delivery reaches Worker.mu from the commit machinery. Workers never
	// call back up into the engine. They sit above the storage layer: a
	// shard replica is a colstore table, appended to under Worker.mu, and
	// a RowVersions, stamped under it. RowVersions.mu is a leaf: it ranks
	// inside Worker.mu, which puts it inside every lock above too.
	"dist.Worker.mu":     280,
	"txn.RowVersions.mu": 290,

	// ---- storage layer ----
	"diskstore.Store.mu":      300,
	"diskstore.Table.mu":      320,
	"diskstore.chunkCache.mu": 340,
	"graph.Graph.mu":          350,
	"colstore.Table.mu":       360,
	"rowstore.Table.mu":       370,

	// ---- streaming / federation ----
	"esp.HDFSArchiveSink.mu": 440,
	"fed.Health.mu":          480,

	// ---- big-data side (remote round trips) ----
	"hive.Metastore.mu": 490,
	"hdfs.Cluster.mu":   500,

	// ---- infrastructure leaves (innermost) ----
	"obs.Registry.mu":    520, // metrics registry: bumped from WAL appends under txn.Log.mu
	"obs.Span.mu":        530, // trace spans: ended inside commit under the savepoint barrier
	"faults.Injector.mu": 540,
	"faults.Breaker.mu":  560,

	// ---- lint fixture corpus (testdata/src) ----
	"lockorder.Coord.mu":   900,
	"lockorder.Store.mu":   910,
	"lockorder.Journal.mu": 930,
	"lockorder.Cache.mu":   940,
	"txn.Coordinator.mu":   960,
}
