// Package mrf defines pairwise Markov random fields over arbitrary graphs —
// the graphical-model substrate of the paper's §IV-B use case. A model
// couples a graph with per-vertex node potentials φ_v(x) and a shared
// edge potential ψ(x_u, x_v); the joint distribution is
//
//	P(x) ∝ Π_v φ_v(x_v) · Π_{(u,v)∈E} ψ(x_u, x_v)
//
// The paper notes the pairwise MRF "is generic enough to represent any
// graphical model".
package mrf

import (
	"fmt"
	"math"
	"math/rand"

	"dmlscale/internal/graph"
)

// MRF is a pairwise Markov random field with S states per variable. The
// edge potential is shared across edges (as in Ising/Potts models), which
// keeps memory linear in V rather than E — the regime the paper's DNS-scale
// experiments need.
type MRF struct {
	G      *graph.Graph
	States int
	// nodePot is V×S row-major: φ_v(s) = nodePot[v*States+s].
	nodePot []float64
	// edgePot is S×S row-major: ψ(a, b) = edgePot[a*States+b]. It must be
	// symmetric because the graph is undirected.
	edgePot []float64
}

// New builds an MRF. nodePot must have V·S entries, edgePot S·S entries;
// all potentials must be positive and edgePot symmetric.
func New(g *graph.Graph, states int, nodePot, edgePot []float64) (*MRF, error) {
	if g == nil {
		return nil, fmt.Errorf("mrf: nil graph")
	}
	if states < 2 {
		return nil, fmt.Errorf("mrf: need ≥ 2 states, got %d", states)
	}
	if len(nodePot) != g.NumVertices()*states {
		return nil, fmt.Errorf("mrf: node potentials have %d entries, want %d", len(nodePot), g.NumVertices()*states)
	}
	if len(edgePot) != states*states {
		return nil, fmt.Errorf("mrf: edge potential has %d entries, want %d", len(edgePot), states*states)
	}
	for i, v := range nodePot {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("mrf: node potential %d is %v; must be positive and finite", i, v)
		}
	}
	for a := 0; a < states; a++ {
		for b := 0; b < states; b++ {
			v := edgePot[a*states+b]
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("mrf: edge potential (%d,%d) is %v; must be positive and finite", a, b, v)
			}
			if edgePot[a*states+b] != edgePot[b*states+a] {
				return nil, fmt.Errorf("mrf: edge potential not symmetric at (%d,%d)", a, b)
			}
		}
	}
	return &MRF{G: g, States: states, nodePot: nodePot, edgePot: edgePot}, nil
}

// NodePotential returns φ_v(s).
func (m *MRF) NodePotential(v, s int) float64 { return m.nodePot[v*m.States+s] }

// EdgePotential returns ψ(a, b).
func (m *MRF) EdgePotential(a, b int) float64 { return m.edgePot[a*m.States+b] }

// NodePotentials returns the φ_v row of vertex v.
func (m *MRF) NodePotentials(v int) []float64 {
	return m.nodePot[v*m.States : (v+1)*m.States]
}

// Ising builds the classic two-state model on g: coupling J > 0 favours
// agreeing neighbors (ferromagnetic), J < 0 disagreeing; field h biases
// every vertex toward state 1. Potentials are exponentiated so they stay
// positive: ψ(a,b) = exp(J·σ_a·σ_b), φ_v(s) = exp(h·σ_s) with σ ∈ {−1,+1}.
func Ising(g *graph.Graph, coupling, field float64) (*MRF, error) {
	spin := func(s int) float64 {
		if s == 0 {
			return -1
		}
		return 1
	}
	nodePot := make([]float64, g.NumVertices()*2)
	for v := 0; v < g.NumVertices(); v++ {
		for s := 0; s < 2; s++ {
			nodePot[v*2+s] = math.Exp(field * spin(s))
		}
	}
	edgePot := make([]float64, 4)
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			edgePot[a*2+b] = math.Exp(coupling * spin(a) * spin(b))
		}
	}
	return New(g, 2, nodePot, edgePot)
}

// Random builds an MRF with node potentials drawn uniformly from
// [0.5, 1.5) and a symmetric random edge potential, deterministically from
// seed — a generic loopy-BP workload.
func Random(g *graph.Graph, states int, seed int64) (*MRF, error) {
	rng := rand.New(rand.NewSource(seed))
	nodePot := make([]float64, g.NumVertices()*states)
	for i := range nodePot {
		nodePot[i] = 0.5 + rng.Float64()
	}
	edgePot := make([]float64, states*states)
	for a := 0; a < states; a++ {
		for b := a; b < states; b++ {
			v := 0.5 + rng.Float64()
			edgePot[a*states+b] = v
			edgePot[b*states+a] = v
		}
	}
	return New(g, states, nodePot, edgePot)
}

// BruteForceMarginals computes exact vertex marginals by enumerating all
// S^V assignments. It is the ground truth for BP tests and refuses graphs
// where the state space exceeds ~16M assignments.
func (m *MRF) BruteForceMarginals() ([][]float64, error) {
	v := m.G.NumVertices()
	total := math.Pow(float64(m.States), float64(v))
	if total > 16e6 {
		return nil, fmt.Errorf("mrf: brute force infeasible: %d^%d assignments", m.States, v)
	}
	marginals := make([][]float64, v)
	for i := range marginals {
		marginals[i] = make([]float64, m.States)
	}
	assignment := make([]int, v)
	edges := m.G.EdgeList()
	var z float64
	for {
		// Joint probability of the current assignment.
		p := 1.0
		for vertex, state := range assignment {
			p *= m.NodePotential(vertex, state)
		}
		for _, e := range edges {
			p *= m.EdgePotential(assignment[e.U], assignment[e.V])
		}
		z += p
		for vertex, state := range assignment {
			marginals[vertex][state] += p
		}
		// Advance the odometer.
		i := 0
		for ; i < v; i++ {
			assignment[i]++
			if assignment[i] < m.States {
				break
			}
			assignment[i] = 0
		}
		if i == v {
			break
		}
	}
	for _, row := range marginals {
		for s := range row {
			row[s] /= z
		}
	}
	return marginals, nil
}
