package dataflow

import (
	"math/rand"
	"testing"
)

// Adaptive combiner decision: skewed keys -> enabled, unique keys -> disabled.
func TestCombinerAdaptiveDecision(t *testing.T) {
	runSample := func(gen func(i int) Record) bool {
		c := &CombinerOp{F: func(a, v float64) float64 { return a + v }, Adaptive: true}
		if err := c.Open(&OpContext{}); err != nil {
			t.Fatal(err)
		}
		drop := &collectList{}
		for i := 0; i < combinerSampleSize+10; i++ {
			c.OnRecord(gen(i), drop)
		}
		return c.Enabled()
	}
	rng := rand.New(rand.NewSource(3))
	skewed := runSample(func(i int) Record {
		return Data(int64(i), uint64(rng.Intn(8)), 1.0)
	})
	unique := runSample(func(i int) Record {
		return Data(int64(i), uint64(i), 1.0)
	})
	if !skewed {
		t.Fatalf("combiner should enable on skewed keys")
	}
	if unique {
		t.Fatalf("combiner should disable on unique keys")
	}
}
