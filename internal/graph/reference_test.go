package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refPowerLawDegrees is PowerLawDegrees as it was before the guide table,
// the certified bisection and the reach check: a binary search of the CDF
// per draw and refCalibrateAlpha's full bisection. PowerLawDegrees must
// return exactly what it returns wherever the repair can reach the degree
// sum; outside that range its repair loop never ends, so callers check
// reachable first.
func refPowerLawDegrees(vertices int, edges int64, maxDegree int32, seed int64) ([]int32, error) {
	if vertices < 2 || edges < 1 || maxDegree < 1 {
		return nil, fmt.Errorf("graph: power-law degrees: need positive sizes")
	}
	if int64(maxDegree) > 2*edges {
		return nil, fmt.Errorf("graph: power-law degrees: max degree %d exceeds degree sum %d", maxDegree, 2*edges)
	}
	targetSum := 2 * edges
	mean := float64(targetSum) / float64(vertices)
	if mean < 1 {
		return nil, fmt.Errorf("graph: power-law degrees: mean degree %.3f < 1", mean)
	}
	if mean > float64(maxDegree) {
		return nil, fmt.Errorf("graph: power-law degrees: mean degree %.1f exceeds max degree %d", mean, maxDegree)
	}

	alpha, err := refCalibrateAlpha(mean, maxDegree)
	if err != nil {
		return nil, err
	}

	// Build the inverse CDF table for P(d) ∝ d^−α.
	maxD := int(maxDegree)
	cdf := make([]float64, maxD)
	acc := 0.0
	for d := 1; d <= maxD; d++ {
		acc += math.Pow(float64(d), -alpha)
		cdf[d-1] = acc
	}
	norm := cdf[maxD-1]

	rng := rand.New(rand.NewSource(seed))
	degrees := make([]int32, vertices)
	var sum int64
	argmax := 0
	for v := range degrees {
		x := rng.Float64() * norm
		// Binary search the CDF.
		lo, hi := 0, maxD-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		degrees[v] = int32(lo + 1)
		sum += int64(lo + 1)
		if degrees[v] > degrees[argmax] {
			argmax = v
		}
	}

	// Pin the hub: the paper's graph has a known maximum degree.
	sum += int64(maxDegree) - int64(degrees[argmax])
	degrees[argmax] = maxDegree

	// Repair the sum with bounded ±1 adjustments on random non-hub
	// vertices.
	for sum != targetSum {
		v := rng.Intn(vertices)
		if v == argmax {
			continue
		}
		if sum < targetSum && degrees[v] < maxDegree-1 {
			degrees[v]++
			sum++
		} else if sum > targetSum && degrees[v] > 1 {
			degrees[v]--
			sum--
		}
	}
	return degrees, nil
}

// refCalibrateAlpha is calibrateAlpha's reference: the 60-step bisection on
// [0, 6] that evaluates meanAt at every step.
func refCalibrateAlpha(mean float64, maxDegree int32) (float64, error) {
	maxD := int(maxDegree)
	meanAt := func(alpha float64) float64 {
		var num, den float64
		for d := 1; d <= maxD; d++ {
			p := math.Pow(float64(d), -alpha)
			num += float64(d) * p
			den += p
		}
		return num / den
	}
	// Mean decreases in α. Bracket then bisect.
	lo, hi := 0.0, 6.0
	if meanAt(lo) < mean {
		return 0, fmt.Errorf("graph: calibrate: mean %.2f unreachable below α=0", mean)
	}
	if meanAt(hi) > mean {
		return 0, fmt.Errorf("graph: calibrate: mean %.2f unreachable above α=6", mean)
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if meanAt(mid) > mean {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// reachable reports whether the repair can reach the degree sum 2·edges:
// the hub sits at maxDegree and every other vertex between 1 and
// maxDegree-1 (1 when maxDegree is 1).
func reachable(vertices int, edges int64, maxDegree int32) bool {
	rest := int64(vertices - 1)
	return vertices >= 2 && maxDegree >= 1 &&
		2*edges >= rest+int64(maxDegree) &&
		2*edges <= rest*int64(max(maxDegree-1, 1))+int64(maxDegree)
}

// sameAlpha fails unless calibrateAlpha and refCalibrateAlpha agree bit for
// bit on (mean, maxDegree), errors included.
func sameAlpha(t *testing.T, mean float64, maxDegree int32) {
	t.Helper()
	got, gotErr := calibrateAlpha(mean, maxDegree)
	want, wantErr := refCalibrateAlpha(mean, maxDegree)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("calibrateAlpha(%v, %d): error %v, reference %v", mean, maxDegree, gotErr, wantErr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("calibrateAlpha(%v, %d) = %v (%#x), reference %v (%#x)",
			mean, maxDegree, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// sameDegrees fails unless PowerLawDegrees and refPowerLawDegrees return
// the same sequence, or the same error, for a spec the repair can reach.
func sameDegrees(t *testing.T, vertices int, edges int64, maxDegree int32, seed int64) {
	t.Helper()
	got, gotErr := PowerLawDegrees(vertices, edges, maxDegree, seed)
	want, wantErr := refPowerLawDegrees(vertices, edges, maxDegree, seed)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("PowerLawDegrees(%d, %d, %d, %d): error %v, reference %v", vertices, edges, maxDegree, seed, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("PowerLawDegrees(%d, %d, %d, %d): %d degrees, reference %d", vertices, edges, maxDegree, seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("PowerLawDegrees(%d, %d, %d, %d): degree %d is %d, reference %d", vertices, edges, maxDegree, seed, i, got[i], want[i])
		}
	}
}

// usedSizes are the vertex counts the example suites, the benchmark (20K is
// its smoke size) and the experiments generate DNS graphs at; the last is
// the paper's full graph.
var usedSizes = []int{1000, 16000, 20000, 100000, 165000, 1000000, 1600000, 16259408}

func TestCalibrateAlphaMatchesReferenceAtUsedSizes(t *testing.T) {
	for _, v := range usedSizes {
		spec := ScaledDNSGraph(v)
		sameAlpha(t, float64(2*spec.Edges)/float64(spec.Vertices), spec.MaxDegree)
	}
}

// TestCalibrateAlphaMatchesReferenceOnRandomPairs covers means across the
// whole reachable range of each max degree, small max degrees (where the
// mean barely moves with α) included, and means past either end, where both
// fail with the same error.
func TestCalibrateAlphaMatchesReferenceOnRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, maxD := range []int32{1, 2, 3} {
		for i := 0; i < 40; i++ {
			sameAlpha(t, 1+rng.Float64()*float64(maxD), maxD)
		}
	}
	sameAlpha(t, 1, 1)
	sameAlpha(t, 1.5, 2)
	for i := 0; i < 300; i++ {
		maxD := int32(2 + rng.Intn(1<<(2+rng.Intn(12))))
		top := float64(maxD+1) / 2
		sameAlpha(t, 1+rng.Float64()*1.05*(top-1), maxD)
	}
}

// TestBisectAlphaIgnoresItsEstimate: the estimate only decides how many
// steps the bisection evaluates. Estimates off the root by more than their
// width, on either side, empty or infinite widths and NaN must all give the
// reference's α, because a bracket that fails its certificate decides
// nothing.
func TestBisectAlphaIgnoresItsEstimate(t *testing.T) {
	for _, c := range []struct {
		mean      float64
		maxDegree int32
	}{
		{1, 1}, {1.3, 2}, {1.9, 3}, {12.282625, 304}, {12.28268, 1902}, {300, 1000},
	} {
		want, wantErr := refCalibrateAlpha(c.mean, c.maxDegree)
		if wantErr != nil {
			t.Fatal(wantErr)
		}
		for _, e := range []struct{ guess, width float64 }{
			{want, 0}, {want, 1e-300}, {want, math.Inf(1)}, {math.NaN(), 1}, {want, math.NaN()},
			{want - 1e-3, 1e-12}, {want + 1e-3, 1e-12}, {want - 1e-9, 1e-14}, {want + 1e-9, 1e-14},
			{0, 1e-9}, {6, 1e-9}, {-5, 1}, {12, 1},
		} {
			got, err := bisectAlpha(c.mean, c.maxDegree, e.guess, e.width)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("bisectAlpha(%v, %d, %v, %v) = %v, %v; reference %v", c.mean, c.maxDegree, e.guess, e.width, got, err, want)
			}
		}
	}
}

// sequenceDigest is the sha256 of the degrees as little-endian int32s.
func sequenceDigest(degrees []int32) string {
	h := sha256.New()
	var b [4]byte
	for _, d := range degrees {
		binary.LittleEndian.PutUint32(b[:], uint32(d))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPowerLawDegreesPinnedDigests pins the sequences the examples (16K
// vertices, seed 42) and the benchmark (100K and 1M vertices) generate, as
// computed by the binary-search generator.
func TestPowerLawDegreesPinnedDigests(t *testing.T) {
	for _, c := range []struct {
		vertices int
		seed     int64
		digest   string
	}{
		{16000, 42, "cd5a32c81cf1e9dd16bb99142b6ce167e37590a7c449430a8918b83849e767f8"},
		{100000, 1, "03c5d4dae37f62695c22e2f34124173f313fbdf8ed39895243aa773b1d74d1da"},
		{1000000, 1, "b0c1b1742d3b4f55c334fad648c5e5d9488dd9a086f546ffd336a87c5d274855"},
	} {
		degrees, err := ScaledDNSGraph(c.vertices).Degrees(c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := sequenceDigest(degrees); got != c.digest {
			t.Errorf("%d vertices, seed %d: sha256 %s, want %s", c.vertices, c.seed, got, c.digest)
		}
	}
}

// TestPowerLawDegreesMatchesReference compares whole sequences on small
// specs across the reachable range: skewed and flat, tiny max degrees, and
// sums at both ends of what the repair reaches.
func TestPowerLawDegreesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sameDegrees(t, 10, 5, 1, 3)
	sameDegrees(t, 9, 5, 2, 3) // max degree 2 reaches one sum, V+1
	sameDegrees(t, 9, 6, 4, 3) // the lowest reachable sum
	for i := 0; i < 200; i++ {
		v := 2 + rng.Intn(3000)
		maxD := int32(1 + rng.Intn(1+rng.Intn(2000)))
		e := 1 + rng.Int63n(int64(v)*int64(maxD+1)/4+1)
		if !reachable(v, e, maxD) {
			continue
		}
		sameDegrees(t, v, e, maxD, rng.Int63())
	}
	for _, v := range []int{2000, 16000} {
		spec := ScaledDNSGraph(v)
		for seed := int64(0); seed < 3; seed++ {
			sameDegrees(t, spec.Vertices, spec.Edges, spec.MaxDegree, seed)
		}
	}
}

// TestPowerLawDegreesRejectsUnreachableSums: a degree sum the repair cannot
// reach must fail fast, not spin. Each spec runs on its own goroutine, so a
// generator that spins fails the test instead of hanging it.
func TestPowerLawDegreesRejectsUnreachableSums(t *testing.T) {
	for _, c := range []struct {
		vertices  int
		edges     int64
		maxDegree int32
		seed      int64
	}{
		{458, 300, 315, 1}, // sum 600 < 457 + 315
		{10, 7, 2, 2},      // sum 14 > 9·1 + 2; the draws leave it short
		{10, 7, 2, 1},      // the same spec, whose draws happened to reach it
		{4, 2, 1, 1},       // max degree 1: every degree is 1, and so is the mean
	} {
		done := make(chan error, 1)
		go func() {
			_, err := PowerLawDegrees(c.vertices, c.edges, c.maxDegree, c.seed)
			done <- err
		}()
		select {
		case err := <-done:
			if reachable(c.vertices, c.edges, c.maxDegree) {
				if err != nil {
					t.Errorf("%+v: %v", c, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), "outside the reachable") {
				t.Errorf("%+v: error %v, want the reachable range named", c, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%+v: no result after 5 s; the repair loop does not end", c)
		}
	}
}

// FuzzPowerLawDegrees compares the generator with its reference on specs of
// up to 4,095 vertices and max degree 2,047, so that one input costs
// milliseconds: α bit for bit at the spec's mean, and the whole sequence
// wherever the repair can reach the degree sum. Elsewhere the reference
// would spin, so the generator must fail, naming the reachable range once
// the older checks pass.
func FuzzPowerLawDegrees(f *testing.F) {
	f.Add(uint16(458), uint32(300), uint16(315), int64(1))
	f.Add(uint16(10), uint32(7), uint16(2), int64(2))
	f.Add(uint16(9), uint32(5), uint16(2), int64(3))
	f.Add(uint16(64), uint32(32), uint16(1), int64(0))
	f.Add(uint16(4000), uint32(24565), uint16(76), int64(42))
	f.Add(uint16(2000), uint32(1000000), uint16(900), int64(5))
	f.Fuzz(func(t *testing.T, v uint16, e uint32, m uint16, seed int64) {
		vertices, maxDegree := int(v%4096), int32(m%2048)
		edges := int64(e) % (int64(vertices)*int64(maxDegree)/2 + 2)
		if vertices == 0 {
			if _, err := PowerLawDegrees(vertices, edges, maxDegree, seed); err == nil {
				t.Fatal("no vertices accepted")
			}
			return
		}
		mean := float64(2*edges) / float64(vertices)
		if maxDegree > 0 {
			sameAlpha(t, mean, maxDegree)
		}
		if reachable(vertices, edges, maxDegree) {
			sameDegrees(t, vertices, edges, maxDegree, seed)
			return
		}
		_, err := PowerLawDegrees(vertices, edges, maxDegree, seed)
		older := vertices < 2 || edges < 1 || maxDegree < 1 || int64(maxDegree) > 2*edges ||
			mean < 1 || mean > float64(maxDegree)
		if err == nil || !older && !strings.Contains(err.Error(), "outside the reachable") {
			t.Fatalf("PowerLawDegrees(%d, %d, %d, %d): error %v, want the reachable range named", vertices, edges, maxDegree, seed, err)
		}
	})
}
