package stats

import "testing"

func TestQuartilesMatchPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.5, 9, 2.25, 7, 7, 1}, [3]float64{0.875, 4.625, 7.5}},
	} {
		q1, m, q3 := Quartiles(tc.xs)
		if got := [3]float64{q1, m, q3}; got != tc.want {
			t.Errorf("Quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if q1, m, q3 := Quartiles([]float64{4}); q1 != 4 || m != 4 || q3 != 4 {
		t.Errorf("Quartiles of one value = %v %v %v, want 4 4 4", q1, m, q3)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n, want := range map[int]int{200: 95, 100: 90, 150: 93, 20: 50, 11: 9} {
		p, ok := TailPercentile(n)
		if !ok || p != want {
			t.Errorf("TailPercentile(%d) = %d, %v; want %d", n, p, ok, want)
		}
	}
	if _, ok := TailPercentile(10); ok {
		t.Error("TailPercentile(10) has a percentile; ten samples leave none with ten beyond")
	}
	// beyond counts the samples of 1..n above its p-th percentile.
	beyond := func(n, p int) int {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		v := Percentile(xs, float64(p))
		return n - int(v)
	}
	for _, n := range []int{11, 37, 100, 150, 200, 1000} {
		p, _ := TailPercentile(n)
		if got := beyond(n, p); got < 10 {
			t.Errorf("n=%d: p%d leaves %d samples beyond, want at least 10", n, p, got)
		}
		if got := beyond(n, p+1); got >= 10 {
			t.Errorf("n=%d: p%d still leaves %d beyond, so p%d is not the highest", n, p+1, got, p)
		}
	}
	if v, p := Tail([]float64{3, 9, 1}); v != 9 || p != 100 {
		t.Errorf("Tail of a small set = %v at p%d, want its maximum", v, p)
	}
}

func TestBootstrapRatioCI(t *testing.T) {
	same := []float64{10, 11, 9, 10, 10.5, 9.5, 10, 10.2, 9.8, 10}
	lo, hi := BootstrapRatioCI(same, same, 1000)
	if lo > 0 || hi < 0 {
		t.Errorf("identical sides: interval [%v, %v] excludes 0", lo, hi)
	}
	faster := make([]float64, len(same))
	for i, v := range same {
		faster[i] = v * 0.5
	}
	lo, hi = BootstrapRatioCI(same, faster, 1000)
	if hi >= 0 || lo > -0.4 || hi < -0.6 {
		t.Errorf("halved change: interval [%v, %v], want around -0.5", lo, hi)
	}
	if l2, h2 := BootstrapRatioCI(same, faster, 1000); l2 != lo || h2 != hi {
		t.Error("bootstrap interval is not reproducible")
	}
}
