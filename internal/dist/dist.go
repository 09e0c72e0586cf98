// Package dist implements scale-out execution: a coordinator that compiles
// query pieces into plan fragments, N worker shards that execute them over
// hash-sharded replicas of hot tables, and a gather exchange that merges the
// workers' partial streams back into exactly the single-node result.
//
// The design follows the paper's growth from one columnar engine into a
// distributed infrastructure: the engine node stays authoritative (WAL,
// savepoints), while workers hold sequence-tagged copies of shardable
// tables. A replica is what an engine partition is — a column-store table
// and a txn.RowVersions — written at statement time and stamped by the
// engine's two-phase commit, so one visibility rule decides a row on the
// engine and on every worker. Rows ship as typed batches, a scan's and a
// broadcast join's alike, each row tagged with its global scan sequence, so
// the coordinator's k-way merge reproduces the exact serial scan order —
// the property that makes distributed results byte-identical to local ones
// at any shard count, replica count and worker-pool width.
//
// Workers are in-process goroutine nodes behind the Transport interface; a
// net/rpc transport can slot in later without touching the planner, because
// fragments and chunks already round-trip through the wire codec.
package dist

import "hana/internal/value"

// Topology describes the worker fleet: how many shards hot tables split
// into (one worker per shard) and how many copies of each shard exist.
type Topology struct {
	// Shards is the worker count; 0 or 1 disables distributed execution.
	Shards int
	// Replicas is the number of workers holding each shard (primary +
	// backups). 0 defaults to 2 when sharding is on, and is capped at
	// Shards. Replicas make worker death survivable mid-query.
	Replicas int
}

// Enabled reports whether the topology describes a real worker fleet.
func (t Topology) Enabled() bool { return t.Shards > 1 }

// ReplicaCount resolves the effective copies per shard.
func (t Topology) ReplicaCount() int {
	r := t.Replicas
	if r <= 0 {
		r = 2
	}
	if r > t.Shards {
		r = t.Shards
	}
	if r < 1 {
		r = 1
	}
	return r
}

// Owners lists the workers holding a shard, primary first. Shard s lives on
// workers s, s+1, … (mod Shards), so load spreads evenly and losing one
// worker leaves every shard with a live replica.
func (t Topology) Owners(shard int) []int {
	n := t.ReplicaCount()
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = (shard + i) % t.Shards
	}
	return out
}

// ShardOf routes a shard-key value to its shard. NULL keys land on shard 0.
func ShardOf(v value.Value, shards int) int {
	if shards <= 1 {
		return 0
	}
	if v.IsNull() {
		return 0
	}
	return int(v.Hash() % uint64(shards))
}
