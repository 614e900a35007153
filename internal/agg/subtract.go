package agg

// SubtractOnEvict is the sliding-window aggregator for *invertible*
// aggregates (sum, count, avg): a single running accumulator, O(1) combines
// per push and one Invert per eviction. It is the cheapest possible window
// state but applies only when Invert exists — min/max cannot use it, which
// is exactly why general engines need FlatFAT/two-stacks. The agg
// micro-benchmarks compare all three, and experiment E11 ablates it against
// FlatFAT and two-stacks for an invertible function.
type SubtractOnEvict struct {
	fn   *FnF64
	acc  Acc
	fifo []Acc
}

// NewSubtractOnEvict returns an empty aggregator; fn must have Invert.
func NewSubtractOnEvict(fn *FnF64) *SubtractOnEvict {
	if fn.Invert == nil {
		panic("agg: SubtractOnEvict requires an invertible function: " + fn.Name)
	}
	return &SubtractOnEvict{fn: fn, acc: fn.Identity}
}

// Len returns the window size.
func (s *SubtractOnEvict) Len() int { return len(s.fifo) }

// Push appends a partial at the back.
func (s *SubtractOnEvict) Push(a Acc) {
	s.fifo = append(s.fifo, a)
	s.acc = s.fn.Combine(s.acc, a)
}

// PopFront evicts the oldest partial with one Invert.
func (s *SubtractOnEvict) PopFront() {
	if len(s.fifo) == 0 {
		panic("agg: PopFront on empty SubtractOnEvict")
	}
	s.acc = s.fn.Invert(s.acc, s.fifo[0])
	s.fifo = s.fifo[1:]
	if cap(s.fifo) > 64 && len(s.fifo) < cap(s.fifo)/4 {
		fresh := make([]Acc, len(s.fifo))
		copy(fresh, s.fifo)
		s.fifo = fresh
	}
}

// Aggregate returns the whole-window aggregate in O(1).
func (s *SubtractOnEvict) Aggregate() Acc {
	if len(s.fifo) == 0 {
		return s.fn.Identity
	}
	return s.acc
}
