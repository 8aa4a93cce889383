package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// Grid2D returns the rows×cols lattice graph (4-neighborhood). Grids are
// the classic loopy-BP benchmark (image denoising).
func Grid2D(rows, cols int) (*Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("graph: grid: non-positive dimensions %d×%d", rows, cols)
	}
	var edges []Edge
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{id(r, c), id(r+1, c)})
			}
		}
	}
	return FromEdges(rows*cols, edges)
}

// Star returns the star graph with one hub and leaves satellites.
func Star(leaves int) (*Graph, error) {
	if leaves < 1 {
		return nil, fmt.Errorf("graph: star: need at least one leaf")
	}
	edges := make([]Edge, leaves)
	for i := 0; i < leaves; i++ {
		edges[i] = Edge{0, int32(i + 1)}
	}
	return FromEdges(leaves+1, edges)
}

// Cycle returns the n-cycle, the smallest loopy graph family.
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: cycle: need n ≥ 3, got %d", n)
	}
	edges := make([]Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = Edge{int32(i), int32((i + 1) % n)}
	}
	return FromEdges(n, edges)
}

// Path returns the n-vertex path graph, a tree on which BP is exact.
func Path(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: path: need n ≥ 2, got %d", n)
	}
	edges := make([]Edge, n-1)
	for i := 0; i < n-1; i++ {
		edges[i] = Edge{int32(i), int32(i + 1)}
	}
	return FromEdges(n, edges)
}

// CompleteBinaryTree returns a complete binary tree with n vertices.
func CompleteBinaryTree(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: tree: need n ≥ 1, got %d", n)
	}
	var edges []Edge
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{int32((i - 1) / 2), int32(i)})
	}
	return FromEdges(n, edges)
}

// ChungLu materializes a random graph whose expected degree sequence matches
// the given one, by sampling each vertex's half-edges proportionally to
// degree. The result is simple (duplicates and self loops rejected), so
// realized degrees approximate the targets. Intended for graphs small enough
// to hold an edge map in memory.
func ChungLu(degrees []int32, seed int64) (*Graph, error) {
	n := len(degrees)
	if n < 2 {
		return nil, fmt.Errorf("graph: chung-lu: need ≥ 2 vertices")
	}
	var total int64
	for v, d := range degrees {
		if d < 0 {
			return nil, fmt.Errorf("graph: chung-lu: negative degree at %d", v)
		}
		total += int64(d)
	}
	if total%2 != 0 {
		return nil, fmt.Errorf("graph: chung-lu: degree sum %d is odd", total)
	}
	edgeCount := total / 2
	// Weighted sampling by prefix sums of degree.
	prefix := make([]int64, n+1)
	for v := 0; v < n; v++ {
		prefix[v+1] = prefix[v] + int64(degrees[v])
	}
	pick := func(rng *rand.Rand) int {
		x := rng.Int63n(total)
		// Binary search for the owning vertex.
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if prefix[mid+1] <= x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]struct{}, edgeCount)
	edges := make([]Edge, 0, edgeCount)
	attempts := 0
	maxAttempts := int(edgeCount)*50 + 1000
	for int64(len(edges)) < edgeCount && attempts < maxAttempts {
		attempts++
		u, v := pick(rng), pick(rng)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)*int64(n) + int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, Edge{int32(u), int32(v)})
	}
	if int64(len(edges)) < edgeCount {
		return nil, fmt.Errorf("graph: chung-lu: could not place %d edges (degree sequence too skewed)", edgeCount)
	}
	return FromEdges(n, edges)
}

// PowerLawDegrees generates a degree sequence with the exact vertex count,
// exact degree sum 2·edges, and exact maximum degree — the three statistics
// the paper publishes for its DNS traffic graph. Degrees are drawn from a
// truncated discrete power law P(d) ∝ d^−α on [1, maxDegree], with α
// calibrated by bisection so the expected mean matches 2E/V; one vertex is
// then pinned to maxDegree and the sum repaired by bounded ±1 adjustments.
func PowerLawDegrees(vertices int, edges int64, maxDegree int32, seed int64) ([]int32, error) {
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

	alpha, err := calibrateAlpha(mean, maxDegree)
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

// calibrateAlpha finds α such that the truncated power law on [1, maxDegree]
// has the requested mean degree.
func calibrateAlpha(mean float64, maxDegree int32) (float64, error) {
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

// DNSTraffic are the published statistics of the paper's §V-B graph: real
// DNS traffic in a large enterprise.
type DNSTraffic struct {
	Vertices  int
	Edges     int64
	MaxDegree int32
}

// PaperDNSGraph is the full-size §V-B graph: 16,259,408 vertices,
// 99,854,596 edges, maximum degree 309,368.
func PaperDNSGraph() DNSTraffic {
	return DNSTraffic{Vertices: 16259408, Edges: 99854596, MaxDegree: 309368}
}

// ScaledDNSGraph returns the paper's smaller validation graphs: the 1.6M,
// 165K and 16K vertex variants keep the full graph's mean degree and scale
// the hub proportionally, never letting it fall below four times the mean
// (a hub below the mean is not a hub).
func ScaledDNSGraph(vertices int) DNSTraffic {
	full := PaperDNSGraph()
	ratio := float64(vertices) / float64(full.Vertices)
	edges := int64(float64(full.Edges) * ratio)
	maxDeg := int32(float64(full.MaxDegree) * ratio)
	mean := 2 * float64(full.Edges) / float64(full.Vertices)
	if floor := int32(4*mean) + 1; maxDeg < floor {
		maxDeg = floor
	}
	return DNSTraffic{Vertices: vertices, Edges: edges, MaxDegree: maxDeg}
}

// Degrees generates the degree sequence for the described graph.
func (t DNSTraffic) Degrees(seed int64) ([]int32, error) {
	return PowerLawDegrees(t.Vertices, t.Edges, t.MaxDegree, seed)
}
