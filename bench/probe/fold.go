package probe

import (
	"slices"
	"time"
)

// Span is one recorded span, reduced to what the fold needs.
type Span struct {
	Name       string
	Start, End time.Time
	// Verb is "plan" or "sweep" on the benchmark's own request spans, so
	// spans the planner and the sweep evaluator share a name with can be
	// told apart by the request they ran under.
	Verb string
}

// Fold nests spans by interval containment and returns, aligned with
// spans, each span's self time — its duration minus the union of its
// children's intervals — and the index of its container (-1 for a root).
//
// Containment, not the recorded parent, decides nesting: at parallelism 1
// every span of a pass runs on one goroutine, so intervals nest exactly,
// while a recorded parent can be a further ancestor (a Monte-Carlo kernel
// span records its cell as parent but runs inside the cell's sample span).
// Nesting by time attributes every instant to the innermost span, so self
// times add up to the root's wall time.
func Fold(spans []Span) (self []time.Duration, parent []int) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := spans[a].Start.Compare(spans[b].Start); c != 0 {
			return c
		}
		return spans[b].End.Compare(spans[a].End) // the longer one contains the other
	})
	parent = make([]int, len(spans))
	children := make([][]int, len(spans))
	var stack []int
	for _, i := range order {
		for len(stack) > 0 && !contains(spans[stack[len(stack)-1]], spans[i]) {
			stack = stack[:len(stack)-1]
		}
		parent[i] = -1
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			parent[i] = p
			children[p] = append(children[p], i)
		}
		stack = append(stack, i)
	}
	self = make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End.Sub(s.Start) - covered(spans, children[i])
	}
	return self, parent
}

// contains reports whether inner's interval lies within outer's.
func contains(outer, inner Span) bool {
	return !inner.Start.Before(outer.Start) && !inner.End.After(outer.End)
}

// covered returns the length of the union of the given spans' intervals,
// which arrive sorted by start.
func covered(spans []Span, idx []int) time.Duration {
	var total time.Duration
	var end time.Time
	for _, i := range idx {
		s := spans[i]
		start := s.Start
		if start.Before(end) {
			start = end
		}
		if s.End.After(start) {
			total += s.End.Sub(start)
			end = s.End
		}
	}
	return total
}
