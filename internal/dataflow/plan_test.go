package dataflow

import (
	"testing"
	"time"
)

// TestPlanSpecFingerprintGolden pins the plan fingerprint of a fixed graph.
// Distributed participants compare fingerprints before exchanging data, and
// the control plane ships PlanSpec in gob frames, so the spec's field names,
// field order and JSON encoding are a wire contract: a change here means
// processes built from different versions can no longer verify each other.
func TestPlanSpecFingerprintGolden(t *testing.T) {
	g := NewGraph("golden")
	g.BatchSize = 32
	g.FlushInterval = 5 * time.Millisecond
	g.NumKeyGroups = 64
	op := func() Operator { return &MapOp{F: func(r Record) Record { return r }} }
	src := g.AddSource("src", 2, SliceSource(nil))
	side := g.AddSource("side", 1, SliceSource(nil))
	parse := g.AddOperator("parse+split", 2, op, Edge{From: src, Part: Forward})
	comb := g.AddOperator("sum-combine", 2, op, Edge{From: parse, Part: Forward})
	sum := g.AddOperator("sum", 3, op, Edge{From: comb, Part: HashPartition})
	join := g.AddOperator("join", 3, op, Edge{From: sum, Part: HashPartition}, Edge{From: side, Part: BroadcastPartition})
	out := g.AddOperator("out", 1, op, Edge{From: join, Part: Rebalance})
	out.Pinned = true

	for _, c := range []struct {
		chaining bool
		want     string
	}{
		{true, "c29faf7ae525eb66fcc7f2ca49d1bb1c43e5b33e3fba7a76f49edde90e6abbe0"},
		{false, "c61e04c7197f1b58682ada1d064ac67b1d1eb60887fcd8e9a508e1938e4464ad"},
	} {
		if got := SpecOf(g, c.chaining).Fingerprint(); got != c.want {
			t.Errorf("chaining=%v: fingerprint %s, want %s", c.chaining, got, c.want)
		}
	}
}
