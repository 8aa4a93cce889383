package core

import "testing"

func TestMinWorkersFor(t *testing.T) {
	m := exampleModel()
	// s is monotone up to the peak: the first n with s(n) ≥ 3.
	n, ok := m.MinWorkersFor(3, 30)
	if !ok {
		t.Fatal("target 3 not reachable")
	}
	if m.Speedup(n) < 3 || (n > 1 && m.Speedup(n-1) >= 3) {
		t.Errorf("MinWorkersFor(3) = %d is not minimal", n)
	}
	// Unreachable target.
	if _, ok := m.MinWorkersFor(1000, 30); ok {
		t.Error("unreachable target reported reachable")
	}
	// Target 1 is met by a single worker.
	if n, ok := m.MinWorkersFor(1, 30); !ok || n != 1 {
		t.Errorf("MinWorkersFor(1) = %d, %v", n, ok)
	}
}
