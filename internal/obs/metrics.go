package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic (or gauge-like, Add accepts negatives) counter.
// The zero value is ready to use; register one through a Set to expose it.
type Counter struct {
	v atomic.Int64
}

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the counter's current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf
// overflow bucket. Bucket counts are atomic and the running sum is a
// CAS-updated float, so Observe is lock-free.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit
	buckets []atomic.Int64
	sum     atomic.Uint64 // float64 bits
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets()
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	return h
}

// DurationBuckets is the default latency bucket ladder, in seconds, from
// 1ms to 60s.
func DurationBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// CountBuckets is a power-of-two ladder for cardinalities (cells per
// request, and the like).
func CountBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Snapshot captures a consistent-enough view for reporting: counts per
// bucket, total count and sum. Taken while writers run, it may straddle
// a concurrent Observe; totals are exact at quiescence.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		snap.Counts[i] = c
		snap.Count += c
	}
	snap.Sum = math.Float64frombits(h.sum.Load())
	return snap
}

// HistogramSnapshot is a point-in-time view of a Histogram.
type HistogramSnapshot struct {
	Bounds []float64 // ascending upper bounds; Counts has one extra +Inf bucket
	Counts []int64
	Count  int64
	Sum    float64
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the containing bucket — the same estimate
// Prometheus' histogram_quantile computes. Values beyond the last finite
// bound clamp to it. Returns 0 on an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Bounds[i]
			frac := (rank - float64(cum-c)) / float64(c)
			return lower + (upper-lower)*frac
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Label is one constant Prometheus label attached at registration time.
type Label struct {
	Key   string
	Value string
}

// metricKind discriminates Set entries for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered entry in a Set.
type metric struct {
	name   string
	help   string
	kind   metricKind
	labels []Label
	ctr    *Counter
	hist   *Histogram
	gauge  func() float64
}

// Set is an ordered registry of metrics with a Prometheus text-format
// writer. Registration is not synchronized — register everything at
// construction time; scraping is safe concurrently with updates.
type Set struct {
	mu      sync.Mutex
	metrics []*metric
}

// NewSet returns an empty metric set.
func NewSet() *Set { return &Set{} }

func (s *Set) register(m *metric) {
	s.mu.Lock()
	s.metrics = append(s.metrics, m)
	s.mu.Unlock()
}

// NewCounter registers and returns a counter.
func (s *Set) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	s.register(&metric{name: name, help: help, kind: kindCounter, labels: labels, ctr: c})
	return c
}

// NewHistogram registers and returns a histogram over bounds.
func (s *Set) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := NewHistogram(bounds)
	s.register(&metric{name: name, help: help, kind: kindHistogram, labels: labels, hist: h})
	return h
}

// NewGauge registers a gauge whose value is read from fn at scrape time.
func (s *Set) NewGauge(name, help string, fn func() float64, labels ...Label) {
	s.register(&metric{name: name, help: help, kind: kindGauge, labels: labels, gauge: fn})
}

// PrometheusContentType is the content type of WritePrometheus output.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus writes the set in Prometheus text exposition format
// (version 0.0.4). Metrics sharing a name (e.g. one histogram per route)
// emit their HELP/TYPE header once, on first occurrence.
func (s *Set) WritePrometheus(w io.Writer) error {
	s.mu.Lock()
	metrics := append([]*metric(nil), s.metrics...)
	s.mu.Unlock()

	headered := make(map[string]bool, len(metrics))
	var b strings.Builder
	for _, m := range metrics {
		if !headered[m.name] {
			headered[m.name] = true
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, typeName(m.kind))
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", m.name, labelString(m.labels, "", 0), m.ctr.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", m.name, labelString(m.labels, "", 0), formatFloat(m.gauge()))
		case kindHistogram:
			snap := m.hist.Snapshot()
			var cum int64
			for i, bound := range snap.Bounds {
				cum += snap.Counts[i]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", m.name, labelString(m.labels, "le", bound), cum)
			}
			cum += snap.Counts[len(snap.Bounds)]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", m.name, labelString(m.labels, "le", math.Inf(1)), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", m.name, labelString(m.labels, "", 0), formatFloat(snap.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", m.name, labelString(m.labels, "", 0), snap.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func typeName(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// labelString renders {k="v",...}, appending an le label when leKey is
// non-empty. Empty label sets render as the empty string.
func labelString(labels []Label, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if leKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leKey)
		b.WriteString(`="`)
		b.WriteString(formatFloat(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders floats the way Prometheus expects: +Inf/-Inf
// spelled out, shortest round-trip otherwise.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
