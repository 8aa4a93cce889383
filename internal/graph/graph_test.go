package graph

import (
	"testing"
)

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	nb := g.Neighbors(0)
	if len(nb) != 2 {
		t.Fatalf("neighbors(0) = %v", nb)
	}
	seen := map[int32]bool{nb[0]: true, nb[1]: true}
	if !seen[1] || !seen[3] {
		t.Errorf("neighbors(0) = %v, want {1,3}", nb)
	}
}

func TestFromEdgesErrors(t *testing.T) {
	if _, err := FromEdges(0, nil); err == nil {
		t.Error("zero vertices accepted")
	}
	if _, err := FromEdges(3, []Edge{{1, 1}}); err == nil {
		t.Error("self loop accepted")
	}
	if _, err := FromEdges(3, []Edge{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromEdges(3, []Edge{{0, 1}, {1, 0}}); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	orig := []Edge{{0, 1}, {1, 2}, {0, 3}}
	g, err := FromEdges(4, orig)
	if err != nil {
		t.Fatal(err)
	}
	back := g.EdgeList()
	if len(back) != len(orig) {
		t.Fatalf("round trip: %d edges, want %d", len(back), len(orig))
	}
	seen := map[Edge]bool{}
	for _, e := range back {
		seen[e] = true
	}
	for _, e := range orig {
		if !seen[e] {
			t.Errorf("edge %v lost in round trip", e)
		}
	}
}

func TestGrid2D(t *testing.T) {
	g, err := Grid2D(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 12 {
		t.Errorf("V = %d", g.NumVertices())
	}
	// Edges: 3 rows × 3 horizontal + 2 rows of 4 vertical = 9 + 8 = 17.
	if g.NumEdges() != 17 {
		t.Errorf("E = %d, want 17", g.NumEdges())
	}
	// Corner degree 2, edge degree 3, interior degree 4.
	if g.Degree(0) != 2 || g.Degree(1) != 3 || g.Degree(5) != 4 {
		t.Errorf("degrees: corner=%d edge=%d interior=%d", g.Degree(0), g.Degree(1), g.Degree(5))
	}
	if !g.IsConnectedFrom(0) {
		t.Error("grid not connected")
	}
}

func TestStarCyclePathTree(t *testing.T) {
	star, err := Star(5)
	if err != nil {
		t.Fatal(err)
	}
	if star.Degree(0) != 5 || star.Degree(1) != 1 {
		t.Errorf("star degrees: hub=%d leaf=%d", star.Degree(0), star.Degree(1))
	}

	cyc, err := Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if cyc.Degree(v) != 2 {
			t.Errorf("cycle degree(%d) = %d", v, cyc.Degree(v))
		}
	}

	path, err := Path(5)
	if err != nil {
		t.Fatal(err)
	}
	if path.Degree(0) != 1 || path.Degree(2) != 2 {
		t.Errorf("path degrees wrong")
	}

	tree, err := CompleteBinaryTree(7)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumEdges() != 6 || tree.Degree(0) != 2 || tree.Degree(1) != 3 {
		t.Errorf("tree shape wrong: E=%d", tree.NumEdges())
	}
	if !tree.IsConnectedFrom(0) {
		t.Error("tree not connected")
	}

	for _, err := range []error{
		errOf(Star(0)), errOf(Cycle(2)), errOf(Path(1)), errOf(CompleteBinaryTree(0)), errOf(Grid2D(0, 3)),
	} {
		if err == nil {
			t.Error("invalid generator size accepted")
		}
	}
}

func errOf(_ *Graph, err error) error { return err }

func TestChungLu(t *testing.T) {
	// Regular degree sequence: realizable exactly in expectation.
	degrees := make([]int32, 40)
	for i := range degrees {
		degrees[i] = 4
	}
	g, err := ChungLu(degrees, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 80 {
		t.Errorf("E = %d, want 80", g.NumEdges())
	}
	if _, err := ChungLu([]int32{3}, 1); err == nil {
		t.Error("single vertex accepted")
	}
	if _, err := ChungLu([]int32{1, 2}, 1); err == nil {
		t.Error("odd degree sum accepted")
	}
	if _, err := ChungLu([]int32{-1, 1}, 1); err == nil {
		t.Error("negative degree accepted")
	}
}

func TestDegreeStats(t *testing.T) {
	s := DegreeStats([]int32{1, 2, 3, 4})
	if s.Vertices != 4 || s.Edges != 5 || s.MinDegree != 1 || s.MaxDegree != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.MeanDegree != 2.5 {
		t.Errorf("mean = %v", s.MeanDegree)
	}
	empty := DegreeStats(nil)
	if empty.Vertices != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

// TestPowerLawDegreesExactStatistics is the substitution-fidelity test: the
// generated sequence must match the paper's published V, E and max degree
// exactly.
func TestPowerLawDegreesExactStatistics(t *testing.T) {
	spec := ScaledDNSGraph(16000)
	degrees, err := spec.Degrees(42)
	if err != nil {
		t.Fatal(err)
	}
	s := DegreeStats(degrees)
	if s.Vertices != spec.Vertices {
		t.Errorf("V = %d, want %d", s.Vertices, spec.Vertices)
	}
	if s.Edges != spec.Edges {
		t.Errorf("E = %d, want %d", s.Edges, spec.Edges)
	}
	if s.MaxDegree != spec.MaxDegree {
		t.Errorf("max degree = %d, want %d", s.MaxDegree, spec.MaxDegree)
	}
	if s.MinDegree < 1 {
		t.Errorf("min degree = %d, want ≥ 1", s.MinDegree)
	}
}

func TestPowerLawDegreesHeavyTail(t *testing.T) {
	degrees, err := PowerLawDegrees(10000, 61400, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := DegreeStats(degrees)
	// Heavy tail: the hub dominates the mean by orders of magnitude.
	if float64(s.MaxDegree) < 20*s.MeanDegree {
		t.Errorf("max degree %d not heavy-tailed vs mean %.2f", s.MaxDegree, s.MeanDegree)
	}
	// Most vertices have low degree.
	low := 0
	for _, d := range degrees {
		if d <= 3 {
			low++
		}
	}
	if float64(low) < 0.5*float64(len(degrees)) {
		t.Errorf("only %d/%d vertices have degree ≤ 3; not a power law", low, len(degrees))
	}
}

func TestPowerLawDegreesDeterministic(t *testing.T) {
	a, err := PowerLawDegrees(5000, 30000, 1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PowerLawDegrees(5000, 30000, 1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequences differ at %d", i)
		}
	}
}

func TestPowerLawDegreesErrors(t *testing.T) {
	if _, err := PowerLawDegrees(1, 10, 5, 1); err == nil {
		t.Error("single vertex accepted")
	}
	if _, err := PowerLawDegrees(10, 1, 100, 1); err == nil {
		t.Error("max degree above degree sum accepted")
	}
	if _, err := PowerLawDegrees(100, 10, 5, 1); err == nil {
		t.Error("mean degree below 1 accepted")
	}
	if _, err := PowerLawDegrees(10, 1000, 5, 1); err == nil {
		t.Error("mean above max accepted")
	}
}

func TestPaperDNSGraphConstants(t *testing.T) {
	g := PaperDNSGraph()
	if g.Vertices != 16259408 || g.Edges != 99854596 || g.MaxDegree != 309368 {
		t.Errorf("paper graph constants wrong: %+v", g)
	}
	small := ScaledDNSGraph(16000)
	if small.Vertices != 16000 {
		t.Errorf("scaled vertices = %d", small.Vertices)
	}
	// Mean degree preserved within rounding.
	fullMean := 2 * float64(g.Edges) / float64(g.Vertices)
	smallMean := 2 * float64(small.Edges) / float64(small.Vertices)
	if smallMean < fullMean*0.95 || smallMean > fullMean*1.05 {
		t.Errorf("scaled mean degree %.2f, want ≈ %.2f", smallMean, fullMean)
	}
}

func TestChungLuFromPowerLaw(t *testing.T) {
	// End-to-end: generate a small DNS-like degree sequence and
	// materialize it.
	spec := ScaledDNSGraph(2000)
	degrees, err := spec.Degrees(3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ChungLu(degrees, 4)
	if err != nil {
		t.Fatal(err)
	}
	if int64(g.NumVertices()) != int64(spec.Vertices) {
		t.Errorf("V = %d", g.NumVertices())
	}
	if g.NumEdges() != spec.Edges {
		t.Errorf("E = %d, want %d", g.NumEdges(), spec.Edges)
	}
}
