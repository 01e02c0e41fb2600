// Package metric provides the finite metric spaces on which OMFLP instances
// live: requests arrive at points of a Space, and facilities are opened at
// points of the same Space.
//
// All spaces are finite and addressed by integer point indices in [0, Len()).
// Implementations must satisfy the metric axioms; Check verifies them
// exhaustively and is used by tests.
package metric

import (
	"container/heap"
	"fmt"
	"math"
)

// Space is a finite metric space over points 0..Len()-1.
type Space interface {
	// Len returns the number of points.
	Len() int
	// Distance returns the distance between points i and j. It must be
	// symmetric, non-negative, zero on the diagonal and satisfy the
	// triangle inequality.
	Distance(i, j int) float64
	// Name identifies the space type for reports.
	Name() string
}

// checkEps is the relative slack Check and CheckMatrix allow on symmetry
// and Check on the triangle inequality, for floating-point spaces.
const checkEps = 1e-9

// Check verifies the metric axioms exhaustively in O(n^3). It is intended for
// tests and small spaces; it returns a descriptive error for the first
// violated axiom. Non-negativity tolerates no error; symmetry and the
// triangle inequality allow a tiny relative slack for floating-point spaces.
func Check(s Space) error {
	n := s.Len()
	for i := 0; i < n; i++ {
		if d := s.Distance(i, i); d != 0 {
			return fmt.Errorf("metric: d(%d,%d) = %g, want 0", i, i, d)
		}
		for j := 0; j < n; j++ {
			d := s.Distance(i, j)
			if d < 0 || math.IsNaN(d) {
				return fmt.Errorf("metric: d(%d,%d) = %g is negative or NaN", i, j, d)
			}
			if back := s.Distance(j, i); math.Abs(d-back) > checkEps*(1+d) {
				return fmt.Errorf("metric: asymmetry d(%d,%d)=%g d(%d,%d)=%g", i, j, d, j, i, back)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dij := s.Distance(i, j)
			for k := 0; k < n; k++ {
				if via := s.Distance(i, k) + s.Distance(k, j); dij > via+checkEps*(1+via) {
					return fmt.Errorf("metric: triangle violated d(%d,%d)=%g > d(%d,%d)+d(%d,%d)=%g",
						i, j, dij, i, k, k, j, via)
				}
			}
		}
	}
	return nil
}

// Line is the 1-dimensional metric induced by point positions on the real
// line. The paper's lower bounds (Corollary 3) already hold on this space.
type Line struct {
	pos []float64
}

// NewLine builds a line metric from the given coordinates.
func NewLine(positions []float64) *Line {
	pos := make([]float64, len(positions))
	copy(pos, positions)
	return &Line{pos: pos}
}

// NewGrid returns a line of n evenly spaced points spanning [0, width].
// A single point sits at 0.
func NewGrid(n int, width float64) *Line {
	pos := make([]float64, n)
	if n > 1 {
		step := width / float64(n-1)
		for i := range pos {
			pos[i] = float64(i) * step
		}
	}
	return &Line{pos: pos}
}

func (l *Line) Len() int     { return len(l.pos) }
func (l *Line) Name() string { return "line" }

// Position returns the coordinate of point i.
func (l *Line) Position(i int) float64 { return l.pos[i] }

func (l *Line) Distance(i, j int) float64 {
	return math.Abs(l.pos[i] - l.pos[j])
}

// Euclidean is a k-dimensional Euclidean point set.
type Euclidean struct {
	pts [][]float64
	dim int
}

// NewEuclidean builds a Euclidean metric from point coordinates. All points
// must share one dimension; NewEuclidean panics otherwise.
func NewEuclidean(points [][]float64) *Euclidean {
	if len(points) == 0 {
		return &Euclidean{}
	}
	dim := len(points[0])
	pts := make([][]float64, len(points))
	for i, p := range points {
		if len(p) != dim {
			panic(fmt.Sprintf("metric: point %d has dim %d, want %d", i, len(p), dim))
		}
		pts[i] = append([]float64(nil), p...)
	}
	return &Euclidean{pts: pts, dim: dim}
}

func (e *Euclidean) Len() int     { return len(e.pts) }
func (e *Euclidean) Name() string { return fmt.Sprintf("euclidean-%dd", e.dim) }

// Point returns the coordinates of point i (not a copy; do not mutate).
func (e *Euclidean) Point(i int) []float64 { return e.pts[i] }

func (e *Euclidean) Distance(i, j int) float64 {
	var sum float64
	a, b := e.pts[i], e.pts[j]
	for k := range a {
		d := a[k] - b[k]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Uniform is the uniform metric: every pair of distinct points is at the same
// distance d. Useful as the simplest non-trivial space and as a degenerate
// stress case (d = 0 collapses to a single point).
type Uniform struct {
	n int
	d float64
}

// NewUniform returns a uniform metric over n points with pairwise distance d.
func NewUniform(n int, d float64) *Uniform {
	if d < 0 {
		panic("metric: negative uniform distance")
	}
	return &Uniform{n: n, d: d}
}

func (u *Uniform) Len() int     { return u.n }
func (u *Uniform) Name() string { return "uniform" }

func (u *Uniform) Distance(i, j int) float64 {
	if i == j {
		return 0
	}
	return u.d
}

// SinglePoint returns the one-point metric space used by the Theorem 2 lower
// bound game.
func SinglePoint() Space { return NewUniform(1, 0) }

// Star is a star metric: point 0 is the hub and point i > 0 sits at the end
// of an arm of length arm[i-1].
type Star struct {
	arm []float64
}

// NewStar builds a star with the given arm lengths (one leaf per arm).
func NewStar(arms []float64) *Star {
	for _, a := range arms {
		if a < 0 {
			panic("metric: negative arm length")
		}
	}
	arm := make([]float64, len(arms))
	copy(arm, arms)
	return &Star{arm: arm}
}

func (s *Star) Len() int     { return len(s.arm) + 1 }
func (s *Star) Name() string { return "star" }

func (s *Star) Distance(i, j int) float64 {
	if i == j {
		return 0
	}
	if i == 0 {
		return s.arm[j-1]
	}
	if j == 0 {
		return s.arm[i-1]
	}
	return s.arm[i-1] + s.arm[j-1]
}

// CheckMatrix verifies, in O(n²), the metric axioms of an explicit distance
// matrix that need no triangle check: the matrix is square and non-empty,
// every entry is finite and non-negative, the diagonal is zero, and
// d[i][j] and d[j][i] agree within Check's tolerance. Entry points that
// accept a raw matrix run it; the O(n³) triangle inequality stays in Check.
func CheckMatrix(d [][]float64) error {
	n := len(d)
	if n == 0 {
		return fmt.Errorf("metric: empty distance matrix")
	}
	for i, row := range d {
		if len(row) != n {
			return fmt.Errorf("metric: distance row %d has %d entries, want %d", i, len(row), n)
		}
	}
	for i, row := range d {
		for j, v := range row {
			switch {
			case math.IsNaN(v) || math.IsInf(v, 0):
				return fmt.Errorf("metric: d(%d,%d) = %g is not finite", i, j, v)
			case v < 0:
				return fmt.Errorf("metric: d(%d,%d) = %g is negative", i, j, v)
			case i == j && v != 0:
				return fmt.Errorf("metric: d(%d,%d) = %g, want 0", i, j, v)
			}
			if j >= i {
				continue
			}
			// Row j < i was validated already, so back is finite.
			if back := d[j][i]; math.Abs(v-back) > checkEps*(1+v) {
				return fmt.Errorf("metric: asymmetry d(%d,%d)=%g d(%d,%d)=%g", i, j, v, j, i, back)
			}
		}
	}
	return nil
}

// Matrix is an explicit distance matrix. NewMatrix validates nothing beyond
// shape; CheckMatrix validates a raw matrix's entries and Check asserts
// every metric axiom.
type Matrix struct {
	d [][]float64
}

// NewMatrix wraps a square distance matrix (copied).
func NewMatrix(d [][]float64) *Matrix {
	n := len(d)
	cp := make([][]float64, n)
	for i, row := range d {
		if len(row) != n {
			panic("metric: distance matrix is not square")
		}
		cp[i] = append([]float64(nil), row...)
	}
	return &Matrix{d: cp}
}

func (m *Matrix) Len() int                  { return len(m.d) }
func (m *Matrix) Name() string              { return "matrix" }
func (m *Matrix) Distance(i, j int) float64 { return m.d[i][j] }

// Graph is the shortest-path metric of a weighted undirected graph. Build it
// with NewGraphBuilder; distances are all-pairs shortest paths computed with
// Dijkstra per source.
type Graph struct {
	dist [][]float64
}

func (g *Graph) Len() int                  { return len(g.dist) }
func (g *Graph) Name() string              { return "graph" }
func (g *Graph) Distance(i, j int) float64 { return g.dist[i][j] }

// GraphBuilder accumulates weighted undirected edges.
type GraphBuilder struct {
	n   int
	adj [][]edge
}

type edge struct {
	to int
	w  float64
}

// NewGraphBuilder starts a graph over n nodes and no edges.
func NewGraphBuilder(n int) *GraphBuilder {
	return &GraphBuilder{n: n, adj: make([][]edge, n)}
}

// AddEdge adds an undirected edge {a,b} of weight w ≥ 0.
func (b *GraphBuilder) AddEdge(a, bb int, w float64) {
	if a < 0 || a >= b.n || bb < 0 || bb >= b.n {
		panic("metric: edge endpoint out of range")
	}
	if w < 0 {
		panic("metric: negative edge weight")
	}
	b.adj[a] = append(b.adj[a], edge{to: bb, w: w})
	b.adj[bb] = append(b.adj[bb], edge{to: a, w: w})
}

// Build computes the all-pairs shortest-path closure. Unreachable pairs get
// +Inf, which violates the finite-metric assumption; Build returns an error
// if the graph is disconnected.
func (b *GraphBuilder) Build() (*Graph, error) {
	dist := make([][]float64, b.n)
	for src := 0; src < b.n; src++ {
		dist[src] = b.dijkstra(src)
		for _, d := range dist[src] {
			if math.IsInf(d, 1) {
				return nil, fmt.Errorf("metric: graph is disconnected (unreachable from %d)", src)
			}
		}
	}
	return &Graph{dist: dist}, nil
}

func (b *GraphBuilder) dijkstra(src int) []float64 {
	dist := make([]float64, b.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{{node: src, d: 0}}
	for pq.Len() > 0 {
		top := heap.Pop(pq).(distItem)
		if top.d > dist[top.node] {
			continue
		}
		for _, e := range b.adj[top.node] {
			if nd := top.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(pq, distItem{node: e.to, d: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	node int
	d    float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Nearest returns the point of candidates closest to from, together with the
// distance. candidates must be non-empty; otherwise Nearest returns (-1, +Inf).
func Nearest(s Space, from int, candidates []int) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for _, c := range candidates {
		if d := s.Distance(from, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}
