package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"

	"dmlscale/internal/core"
	"dmlscale/internal/units"
)

// The export writers must write exactly what json.Encoder with
// SetIndent("", "  ") writes. These cases are the edges of encoding/json's
// rules: omitempty of -0, the switch to exponent form at 1e-6 and 1e21,
// the smallest and largest floats, and every class of string it escapes.
var (
	edgeFloats = []float64{0, math.Copysign(0, -1), 1e-6, 9.99999e-7, 1e-7, 9.999999999999999e20, 1e21,
		5e-324, math.MaxFloat64, -1e-6, -9.99999e-7, -1e-7, -1e21, -5e-324, -math.MaxFloat64, 1, -2.5, 42.125}
	edgeStrings = []string{"", "plain", "<b>&", "a&b", "a>b", `"\`, `a\b`, "\x00\x01\b\f\n\r\t\x1f", "\x7f", "bad \xff\xfe utf-8",
		"héllo", "≤1024 workers » ≤992 workers", "\u2028", "a\u2029b", "\ufffd"}
	edgeInts = []int{0, 1, -1, 128, math.MaxInt, math.MinInt}
)

func randFloat(r *rand.Rand) float64 {
	if r.IntN(2) == 0 {
		return edgeFloats[r.IntN(len(edgeFloats))]
	}
	return r.NormFloat64() * math.Pow(10, float64(r.IntN(50)-25))
}

func randString(r *rand.Rand) string {
	s := edgeStrings[r.IntN(len(edgeStrings))]
	if r.IntN(3) == 0 {
		s += edgeStrings[r.IntN(len(edgeStrings))]
	}
	return s
}

func randInt(r *rand.Rand) int {
	if r.IntN(2) == 0 {
		return edgeInts[r.IntN(len(edgeInts))]
	}
	return r.IntN(2000) - 1000
}

// fill sets v, a report or a part of one, to random values by reflection, so
// a field added to PlanRecord or ResultRecord is exercised without touching
// this test, and fails it until the writer emits the field. Each struct
// field is left unset a third of the time; a slice is nil, empty or filled.
func fill(t *testing.T, r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if r.IntN(3) > 0 {
				fill(t, r, v.Field(i))
			}
		}
	case reflect.String:
		v.SetString(randString(r))
	case reflect.Int:
		v.SetInt(int64(randInt(r)))
	case reflect.Float64:
		v.SetFloat(randFloat(r))
	case reflect.Bool:
		v.SetBool(r.IntN(2) == 0)
	case reflect.Slice:
		switch r.IntN(4) {
		case 0:
			v.SetZero()
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + r.IntN(4)
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := range n {
				fill(t, r, s.Index(i))
			}
			v.Set(s)
		}
	default:
		t.Fatalf("fill: %s has kind %s, which the export writers do not handle", v.Type(), v.Kind())
	}
}

// floatsIn collects every float64 in v, in document order.
func floatsIn(v reflect.Value, out []reflect.Value) []reflect.Value {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			out = floatsIn(v.Field(i), out)
		}
	case reflect.Slice:
		for i := range v.Len() {
			out = floatsIn(v.Index(i), out)
		}
	case reflect.Float64:
		out = append(out, v)
	}
	return out
}

// spoil sets one or two of the floats in v to NaN or ±Inf, and reports
// whether there was one to set.
func spoil(r *rand.Rand, v reflect.Value) bool {
	fs := floatsIn(v, nil)
	if len(fs) == 0 {
		return false
	}
	for range 1 + r.IntN(2) {
		fs[r.IntN(len(fs))].SetFloat([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.IntN(3)])
	}
	return true
}

// reference is what the export writers replaced.
func reference(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// same fails t unless the writer's output and error match encoding/json's:
// the same bytes, or the same error with nothing written by either.
func same(t *testing.T, want []byte, wantErr error, got []byte, gotErr error) {
	t.Helper()
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() || len(got) != 0 || len(want) != 0 {
			t.Fatalf("error %v after %d bytes, encoding/json: %v after %d bytes", gotErr, len(got), wantErr, len(want))
		}
		return
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		from := max(0, i-80)
		t.Fatalf("output differs from encoding/json at byte %d of %d (want %d):\n got: %q\nwant: %q",
			i, len(got), len(want), got[from:min(len(got), i+40)], want[from:min(len(want), i+40)])
	}
}

func comparePlans(t *testing.T, rep PlanReport) {
	t.Helper()
	want, wantErr := reference(rep)
	var got bytes.Buffer
	gotErr := WritePlansJSON(&got, rep)
	same(t, want, wantErr, got.Bytes(), gotErr)
}

// compareSuite checks the records writer behind WriteResultsJSON; its
// results array is never null, so rep.Results is not nil.
func compareSuite(t *testing.T, rep SuiteReport) {
	t.Helper()
	want, wantErr := reference(rep)
	var got bytes.Buffer
	floats := 0
	for _, rec := range rep.Results {
		floats += 1 + len(rec.TimesSeconds) + len(rec.Speedups)
	}
	gotErr := writeSuiteJSON(&got, rep.Suite, len(rep.Results), floats, func(i int) ResultRecord { return rep.Results[i] })
	same(t, want, wantErr, got.Bytes(), gotErr)
}

func compareResults(t *testing.T, suite string, results []Result) {
	t.Helper()
	want, wantErr := reference(SuiteReport{Suite: suite, Results: Records(results)})
	var got bytes.Buffer
	gotErr := WriteResultsJSON(&got, suite, results)
	same(t, want, wantErr, got.Bytes(), gotErr)
}

// randResults makes evaluated results: failed ones, ones whose family
// resolves and ones whose family does not.
func randResults(r *rand.Rand) []Result {
	out := make([]Result, r.IntN(4))
	for i := range out {
		res := &out[i]
		if r.IntN(2) == 0 {
			res.Scenario = Fig2()
		}
		res.Scenario.Name = randString(r)
		if r.IntN(4) == 0 {
			res.Err = errors.New(randString(r))
			continue
		}
		res.OptimalN = randInt(r)
		res.PeakSpeedup = randFloat(r)
		res.Curve.Points = make([]core.Point, r.IntN(4))
		for k := range res.Curve.Points {
			res.Curve.Points[k] = core.Point{N: randInt(r), Time: units.Seconds(randFloat(r)), Speedup: randFloat(r)}
		}
	}
	return out
}

// spoilResults sets one float recordOne exports to NaN or ±Inf.
func spoilResults(r *rand.Rand, results []Result) {
	var fs []*float64
	for i := range results {
		if res := &results[i]; res.Err == nil {
			fs = append(fs, &res.PeakSpeedup)
			for k := range res.Curve.Points {
				fs = append(fs, (*float64)(&res.Curve.Points[k].Time), &res.Curve.Points[k].Speedup)
			}
		}
	}
	if len(fs) > 0 {
		*fs[r.IntN(len(fs))] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.IntN(3)]
	}
}

func TestJSONWritersMatchEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(19, 2026))
	var spoiled int
	for range 2000 {
		var plans PlanReport
		fill(t, r, reflect.ValueOf(&plans).Elem())
		comparePlans(t, plans)
		if spoil(r, reflect.ValueOf(&plans).Elem()) {
			spoiled++
			comparePlans(t, plans)
		}

		var suite SuiteReport
		fill(t, r, reflect.ValueOf(&suite).Elem())
		if suite.Results == nil {
			suite.Results = []ResultRecord{}
		}
		compareSuite(t, suite)

		results := randResults(r)
		compareResults(t, randString(r), results)
		spoilResults(r, results)
		compareResults(t, randString(r), results)
	}
	if spoiled < 500 {
		t.Errorf("only %d of 2000 plan reports had a float to spoil", spoiled)
	}
	// The two shapes of an empty report.
	comparePlans(t, PlanReport{Suite: "s", Objective: "tta"})
	comparePlans(t, PlanReport{Suite: "s", Objective: "tta", Plans: []PlanRecord{}})
	compareResults(t, "s", nil)
}

// FuzzJSONWriters runs the same comparison on fuzzed strings and floats:
// s fills every string field and x every float, in records of both writers.
func FuzzJSONWriters(f *testing.F) {
	for i, s := range edgeStrings {
		f.Add(s, edgeFloats[i%len(edgeFloats)])
	}
	for _, x := range edgeFloats {
		f.Add("x", x)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("x", x)
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		comparePlans(t, PlanReport{Suite: s, Objective: s, Plans: []PlanRecord{{
			Rank: 1, Scenario: s, Family: s, ConvergenceAware: true, Rule: s, OptimalWorkers: 2,
			IterationsToAccuracy: x, TimeSeconds: x, CostRatePerNodeHour: x, Cost: x, Pareto: true,
			BoundTimeSeconds: -x, BoundCost: x, Notice: s,
			Workers: []int{1, 2}, TimesSeconds: []float64{x, -x}, Iterations: []float64{x}, Costs: []float64{-x, x},
			Error: s,
		}}})
		compareResults(t, s, []Result{
			{Scenario: Scenario{Name: s}, OptimalN: 1, PeakSpeedup: x,
				Curve: core.Curve{Points: []core.Point{{N: 1, Time: units.Seconds(x), Speedup: -x}, {N: 2, Time: 1, Speedup: x}}}},
			{Scenario: Scenario{Name: s}, Err: errors.New(s)},
		})
		// A document above the memo threshold, from x, -x and x's
		// neighbours, repeated: their hits, misses and shared slots.
		xs := []float64{x, -x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1))}
		curve := make([]float64, 0, minMemoFloats)
		for len(curve) < cap(curve) {
			curve = append(curve, xs...)
		}
		comparePlans(t, PlanReport{Suite: s, Objective: s, Plans: []PlanRecord{{Scenario: s, TimeSeconds: x, TimesSeconds: curve}}})
	})
}

// TestFloatMemoMatchesEncodingJSON writes large documents whose floats come
// from a small pool, so most of them hit the float memo, and compares them
// with encoding/json. The pool holds 0 and -0, which share a slot and differ
// only in their bits; subnormals; both sides of the 1e-6 and 1e21 format
// switches; texts too long for a slot; and two values forced into one slot,
// which evict each other whenever they alternate. The larger document spans
// dozens of chunks, so misses land right before flushes; the smaller is
// just above minMemoFloats.
func TestFloatMemoMatchesEncodingJSON(t *testing.T) {
	// long formats to "-0.0000010000000000000002", 25 bytes.
	long := -math.Nextafter(1e-6, 1)
	if n := len(strconv.FormatFloat(long, 'f', -1, 64)); n <= len(floatSlot{}.text) {
		t.Fatalf("%v formats to %d bytes, which fit a slot", long, n)
	}
	// a and b collide in the largest table, so in every smaller one too:
	// a slot index is the top bits of the same hash.
	j := newJSONWriter(io.Discard, 1<<30)
	if len(j.memo) != 1<<16 {
		t.Fatalf("largest memo has %d slots", len(j.memo))
	}
	a, b := 1.5, 1.5
	for j.slot(math.Float64bits(b)) != j.slot(math.Float64bits(a)) || b == a {
		b = math.Nextafter(b, 2)
	}
	pool := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, 1.5e-310,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e21, math.Nextafter(1e21, 0), -1e21,
		long, -long, math.Nextafter(long, 0), a, b, a, b, 3, 0.1, 1e-7, 123456.789,
	}
	r := rand.New(rand.NewPCG(20, 2026))
	draw := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = pool[r.IntN(len(pool))]
		}
		return xs
	}
	for _, plans := range []int{8, 300} {
		rep := PlanReport{Suite: "memo", Objective: "tta", Plans: make([]PlanRecord, plans)}
		suite := SuiteReport{Suite: "memo", Results: make([]ResultRecord, plans)}
		for i := range plans {
			f := draw(6)
			rep.Plans[i] = PlanRecord{
				Scenario: fmt.Sprint(i), IterationsToAccuracy: f[0], TimeSeconds: f[1], CostRatePerNodeHour: f[2],
				Cost: f[3], BoundTimeSeconds: f[4], BoundCost: f[5],
				Workers: []int{1}, TimesSeconds: draw(128), Iterations: draw(128), Costs: draw(128),
			}
			suite.Results[i] = ResultRecord{Scenario: fmt.Sprint(i), PeakSpeedup: f[0], TimesSeconds: draw(128), Speedups: draw(128)}
		}
		if floats := plans * (1 + 2*128); floats < minMemoFloats {
			t.Fatalf("%d results hold %d floats, too few for a memo", plans, floats)
		}
		comparePlans(t, rep)
		compareSuite(t, suite)
	}
}

// allocReport is a plan report of n evaluated plans with 128-point curves.
func allocReport(n int) PlanReport {
	rep := PlanReport{Suite: "alloc fixture", Objective: "pareto", Plans: make([]PlanRecord, n)}
	for i := range rep.Plans {
		rec := PlanRecord{
			Rank: i + 1, Scenario: fmt.Sprintf("cell %d", i), Family: "gd-weak", ConvergenceAware: true,
			Rule: "diminishing", OptimalWorkers: 64, IterationsToAccuracy: 3125.5, TimeSeconds: 42.5,
			CostRatePerNodeHour: 0.9, Cost: 1e-7 * float64(i+1), Pareto: i%2 == 0,
		}
		for k := range 128 {
			rec.Workers = append(rec.Workers, k+1)
			rec.TimesSeconds = append(rec.TimesSeconds, 1e3/float64(k+1))
			rec.Iterations = append(rec.Iterations, 1e5*float64(k+1)/3)
			rec.Costs = append(rec.Costs, 1e-7*float64(k+1))
		}
		rep.Plans[i] = rec
	}
	return rep
}

// TestWritePlansJSONAllocs pins WritePlansJSON's allocations: one buffer
// and one float memo per document (both fixtures hold well over
// minMemoFloats numbers), none per plan or per number, so 10 and 1,000
// plans cost the same.
func TestWritePlansJSONAllocs(t *testing.T) {
	const pin = 2
	for _, n := range []int{10, 1000} {
		rep := allocReport(n)
		allocs := testing.AllocsPerRun(3, func() {
			if err := WritePlansJSON(io.Discard, rep); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != pin {
			t.Errorf("%d plans: %.0f allocations, pinned at %d", n, allocs, pin)
		}
	}
}

// chunkWriter records the size of every Write and fails the failAt-th.
type chunkWriter struct {
	sizes  []int
	failAt int
}

var errDiskFull = errors.New("disk full")

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	if len(c.sizes) == c.failAt {
		return 0, errDiskFull
	}
	return len(p), nil
}

// TestJSONWritersStreamInChunks checks that a large document reaches the
// writer in chunks of about jsonChunk, and that the first write error ends
// the document and is returned.
func TestJSONWritersStreamInChunks(t *testing.T) {
	rep := allocReport(200)
	want, err := reference(rep)
	if err != nil {
		t.Fatal(err)
	}
	var cw chunkWriter
	if err := WritePlansJSON(&cw, rep); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range cw.sizes {
		if n > jsonChunk+1<<10 {
			t.Errorf("one write of %d bytes, chunks are %d", n, jsonChunk)
		}
		total += n
	}
	if total != len(want) || len(cw.sizes) < len(want)/(jsonChunk+1<<10) {
		t.Errorf("%d bytes in %d writes, want %d bytes in chunks of about %d", total, len(cw.sizes), len(want), jsonChunk)
	}

	cw = chunkWriter{failAt: 2}
	if err := WritePlansJSON(&cw, rep); !errors.Is(err, errDiskFull) {
		t.Fatalf("failing writer: err = %v", err)
	}
	if len(cw.sizes) != 2 {
		t.Errorf("%d writes, want none after the failing second", len(cw.sizes))
	}
}
