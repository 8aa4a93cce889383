package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentSum(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const goroutines, each = 16, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*each {
		t.Fatalf("Value = %d, want %d", got, goroutines*each)
	}
	c.Add(-5)
	if got := c.Value(); got != goroutines*each-5 {
		t.Fatalf("Value after Add(-5) = %d", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 1.5, 3, 5, 100} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 6 {
		t.Fatalf("count = %d", snap.Count)
	}
	wantCounts := []int64{2, 1, 1, 1, 1} // le1:{0.5,1} le2:{1.5} le4:{3} le8:{5} +Inf:{100}
	for i, want := range wantCounts {
		if snap.Counts[i] != want {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, snap.Counts[i], want, snap.Counts)
		}
	}
	if want := 0.5 + 1 + 1.5 + 3 + 5 + 100; math.Abs(snap.Sum-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", snap.Sum, want)
	}
	// p50 rank=3 lands in the le=2 bucket (cum 2->3): interpolated within (1,2].
	if q := snap.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %g, want within (1,2]", q)
	}
	// p99 lands in the overflow bucket and clamps to the last finite bound.
	if q := snap.Quantile(0.99); q != 8 {
		t.Fatalf("p99 = %g, want clamp to 8", q)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	s := NewSet()
	reqs := s.NewCounter("dmls_requests_total", "HTTP requests received.")
	s.NewGauge("dmls_in_flight", "Requests currently evaluating.", func() float64 { return 2 })
	hs := s.NewHistogram("dmls_request_duration_seconds", "Latency by route.",
		[]float64{0.1, 1}, Label{Key: "route", Value: "sweep"})
	hp := s.NewHistogram("dmls_request_duration_seconds", "Latency by route.",
		[]float64{0.1, 1}, Label{Key: "route", Value: `pl"an\`})
	reqs.Add(3)
	hs.Observe(0.05)
	hs.Observe(0.5)
	hp.Observe(2)

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP dmls_requests_total HTTP requests received.\n",
		"# TYPE dmls_requests_total counter\n",
		"dmls_requests_total 3\n",
		"# TYPE dmls_in_flight gauge\n",
		"dmls_in_flight 2\n",
		"# TYPE dmls_request_duration_seconds histogram\n",
		`dmls_request_duration_seconds_bucket{route="sweep",le="0.1"} 1` + "\n",
		`dmls_request_duration_seconds_bucket{route="sweep",le="1"} 2` + "\n",
		`dmls_request_duration_seconds_bucket{route="sweep",le="+Inf"} 2` + "\n",
		`dmls_request_duration_seconds_count{route="sweep"} 2` + "\n",
		`dmls_request_duration_seconds_bucket{route="pl\"an\\",le="+Inf"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// A name shared across label sets emits its TYPE header exactly once.
	if n := strings.Count(out, "# TYPE dmls_request_duration_seconds"); n != 1 {
		t.Fatalf("TYPE header emitted %d times", n)
	}
	// Every TYPE line must parse as "# TYPE <name> <kind>".
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric kind in %q", line)
			}
		}
	}
}

func TestHistogramObserveAllocationFree(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(0.042)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f objects", allocs)
	}
}
