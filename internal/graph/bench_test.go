package graph

import "testing"

// BenchmarkPowerLawDegrees generates the DNS degree sequences of
// serve-mix's graphs (100K vertices) and sweep-comm-grid's (1M).
func BenchmarkPowerLawDegrees(b *testing.B) {
	for _, c := range []struct {
		name     string
		vertices int
	}{{"100K", 100000}, {"1M", 1000000}} {
		spec := ScaledDNSGraph(c.vertices)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spec.Degrees(int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChungLu10K(b *testing.B) {
	degrees, err := ScaledDNSGraph(10000).Degrees(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ChungLu(degrees, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGrid2D100x100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Grid2D(100, 100); err != nil {
			b.Fatal(err)
		}
	}
}
