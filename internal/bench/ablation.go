package bench

import (
	"fmt"
	"time"

	"repro/internal/agg"
	"repro/internal/cutty"
	"repro/internal/engine"
	"repro/internal/window"
)

// E11Ablation isolates two design choices of the Cutty engine:
//
//   - window evaluation strategy inside Cutty: FlatFAT range queries
//     (O(log s) per window) vs a linear fold over the window's slices
//     (O(s) per window) — the tree matters once windows span many slices;
//   - sliding-window state structures at the agg layer: FlatFAT vs
//     two-stacks vs subtract-on-evict for an invertible function.
func E11Ablation(quick bool) *Table {
	n := int64(100_000)
	if quick {
		n = 20_000
	}
	t := &Table{
		ID:     "E11",
		Title:  "ablations: window evaluation strategy and state structures",
		Claim:  "design choices behind the Cutty engine",
		Header: []string{"variant", "workload", "throughput"},
	}

	// Cutty evaluation strategy: many slices per window (range 60s, slide
	// 250ms -> 240 slices/window).
	for _, wl := range []struct {
		name    string
		queries []engine.Query
	}{
		{
			// Sparse fires: one query, windows complete every 250 events.
			"1 query, sliding 60s/250ms",
			[]engine.Query{{Window: window.Sliding(60_000, 250), Fn: agg.SumF64()}},
		},
		{
			// Dense fires: 30 queries over the shared slice store, so a
			// window completes almost every event — range queries dominate.
			"30 queries, sliding 10-60s/100-1000ms",
			func() []engine.Query {
				qs := make([]engine.Query, 30)
				for i := range qs {
					slide := int64(i%10+1) * 100
					qs[i] = engine.Query{Window: window.Sliding(slide*int64(i%6+10), slide), Fn: agg.SumF64()}
				}
				return qs
			}(),
		},
	} {
		for _, cfg := range []struct {
			name string
			opts []cutty.Option
		}{
			{"cutty tree eval", nil},
			{"cutty linear eval", []cutty.Option{cutty.WithLinearEval()}},
		} {
			e := cutty.New(func(engine.Result) {}, cfg.opts...)
			bad := false
			for _, q := range wl.queries {
				if _, err := e.AddQuery(q); err != nil {
					t.Note("%s: %v", cfg.name, err)
					bad = true
					break
				}
			}
			if bad {
				continue
			}
			res := Drive(e, n, func(i int64) int64 { return i }, func(i int64) float64 { return float64(i % 97) })
			t.Add(cfg.name, wl.name, fmtRate(res.Throughput()))
		}
	}

	// State structures: FIFO sliding sum, window of 1024 partials.
	const win = 1024
	sum := agg.SumF64()
	fns := []struct {
		name string
		run  func() float64
	}{
		{"flatfat", func() float64 {
			tr := agg.NewFlatFAT(sum.Identity, sum.Combine, win)
			start := time.Now()
			for i := int64(0); i < n; i++ {
				tr.Append(sum.Lift(float64(i % 97)))
				if tr.Len() > win {
					tr.EvictFront()
				}
				_ = tr.Aggregate()
			}
			return float64(n) / time.Since(start).Seconds()
		}},
		{"two-stacks", func() float64 {
			ts := agg.NewTwoStacks(sum.Identity, sum.Combine)
			start := time.Now()
			for i := int64(0); i < n; i++ {
				ts.Push(sum.Lift(float64(i % 97)))
				if ts.Len() > win {
					ts.PopFront()
				}
				_ = ts.Aggregate()
			}
			return float64(n) / time.Since(start).Seconds()
		}},
		{"subtract-on-evict", func() float64 {
			se := agg.NewSubtractOnEvict(sum)
			start := time.Now()
			for i := int64(0); i < n; i++ {
				se.Push(sum.Lift(float64(i % 97)))
				if se.Len() > win {
					se.PopFront()
				}
				_ = se.Aggregate()
			}
			return float64(n) / time.Since(start).Seconds()
		}},
	}
	for _, f := range fns {
		t.Add(f.name, fmt.Sprintf("FIFO sum, window %d", win), fmtRate(f.run()))
	}
	t.Note("subtract-on-evict applies only to invertible functions (sum/count/avg)")
	return t
}
