package metric

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLineDistances(t *testing.T) {
	l := NewLine([]float64{0, 1, 3.5, -2})
	if got := l.Distance(0, 2); got != 3.5 {
		t.Errorf("d(0,2) = %g", got)
	}
	if got := l.Distance(3, 1); got != 3 {
		t.Errorf("d(3,1) = %g", got)
	}
	if err := Check(l); err != nil {
		t.Error(err)
	}
	if l.Name() != "line" || l.Len() != 4 {
		t.Errorf("Name/Len = %q/%d", l.Name(), l.Len())
	}
}

func TestNewGrid(t *testing.T) {
	g := NewGrid(5, 8)
	if g.Len() != 5 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got := g.Distance(0, 4); math.Abs(got-8) > 1e-12 {
		t.Errorf("span = %g, want 8", got)
	}
	if got := g.Distance(1, 2); math.Abs(got-2) > 1e-12 {
		t.Errorf("step = %g, want 2", got)
	}
	one := NewGrid(1, 8)
	if one.Len() != 1 || one.Position(0) != 0 {
		t.Error("single-point grid wrong")
	}
}

func TestEuclidean(t *testing.T) {
	e := NewEuclidean([][]float64{{0, 0}, {3, 4}, {3, 0}})
	if got := e.Distance(0, 1); math.Abs(got-5) > 1e-12 {
		t.Errorf("d(0,1) = %g, want 5", got)
	}
	if err := Check(e); err != nil {
		t.Error(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched dims must panic")
		}
	}()
	NewEuclidean([][]float64{{0, 0}, {1}})
}

func TestUniformAndSinglePoint(t *testing.T) {
	u := NewUniform(4, 2.5)
	if u.Distance(1, 3) != 2.5 || u.Distance(2, 2) != 0 {
		t.Error("uniform distances wrong")
	}
	if err := Check(u); err != nil {
		t.Error(err)
	}
	sp := SinglePoint()
	if sp.Len() != 1 || sp.Distance(0, 0) != 0 {
		t.Error("single point space wrong")
	}
}

func TestStar(t *testing.T) {
	s := NewStar([]float64{1, 2, 4})
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Distance(0, 2) != 2 {
		t.Errorf("hub->leaf = %g", s.Distance(0, 2))
	}
	if s.Distance(1, 3) != 5 {
		t.Errorf("leaf->leaf = %g", s.Distance(1, 3))
	}
	if err := Check(s); err != nil {
		t.Error(err)
	}
}

func TestMatrix(t *testing.T) {
	m := NewMatrix([][]float64{
		{0, 1, 2},
		{1, 0, 1},
		{2, 1, 0},
	})
	if err := Check(m); err != nil {
		t.Error(err)
	}
	if m.Distance(0, 2) != 2 {
		t.Errorf("d(0,2) = %g", m.Distance(0, 2))
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	asym := NewMatrix([][]float64{{0, 1}, {2, 0}})
	if err := Check(asym); err == nil {
		t.Error("Check accepted an asymmetric matrix")
	}
	neg := NewMatrix([][]float64{{0, -1}, {-1, 0}})
	if err := Check(neg); err == nil {
		t.Error("Check accepted negative distances")
	}
	diag := NewMatrix([][]float64{{1}})
	if err := Check(diag); err == nil {
		t.Error("Check accepted nonzero diagonal")
	}
	tri := NewMatrix([][]float64{
		{0, 10, 1},
		{10, 0, 1},
		{1, 1, 0},
	})
	if err := Check(tri); err == nil {
		t.Error("Check accepted a triangle violation")
	}
}

// TestCheckMatrix: the O(n²) entry check refuses each kind of bad entry
// with an error naming it, tolerates asymmetry within Check's slack, and
// leaves the triangle inequality to Check.
func TestCheckMatrix(t *testing.T) {
	bad := []struct {
		name string
		d    [][]float64
		want string
	}{
		{"empty", nil, "empty"},
		{"ragged", [][]float64{{0, 1}, {1}}, "row 1"},
		{"negative", [][]float64{{0, -1}, {-1, 0}}, "negative"},
		{"infinite", [][]float64{{0, math.Inf(1)}, {math.Inf(1), 0}}, "not finite"},
		{"NaN", [][]float64{{0, 1}, {math.NaN(), 0}}, "not finite"},
		{"diagonal", [][]float64{{5, 1}, {1, 0}}, "want 0"},
		{"asymmetric", [][]float64{{0, 1}, {2, 0}}, "asymmetry"},
	}
	for _, tc := range bad {
		if err := CheckMatrix(tc.d); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	ok := [][][]float64{
		{{0}},
		{{0, 1}, {1 + 1e-12, 0}},
		{{0, 10, 1}, {10, 0, 1}, {1, 1, 0}}, // triangle violation: Check's job
	}
	for _, d := range ok {
		if err := CheckMatrix(d); err != nil {
			t.Errorf("CheckMatrix(%v) = %v, want nil", d, err)
		}
	}
}

func TestGraphShortestPaths(t *testing.T) {
	b := NewGraphBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(0, 3, 10)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Distance(0, 3); got != 3 {
		t.Errorf("d(0,3) = %g, want 3 (via path)", got)
	}
	if err := Check(g); err != nil {
		t.Error(err)
	}
}

func TestGraphDisconnected(t *testing.T) {
	b := NewGraphBuilder(3)
	b.AddEdge(0, 1, 1)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted a disconnected graph")
	}
}

func TestNearest(t *testing.T) {
	l := NewLine([]float64{0, 10, 4, 7})
	p, d := Nearest(l, 0, []int{1, 2, 3})
	if p != 2 || d != 4 {
		t.Errorf("Nearest = (%d, %g), want (2, 4)", p, d)
	}
	p, d = Nearest(l, 0, nil)
	if p != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest(empty) = (%d, %g)", p, d)
	}
}

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if err := Check(RandomLine(rng, 12, 100)); err != nil {
		t.Errorf("RandomLine: %v", err)
	}
	if err := Check(RandomEuclidean(rng, 12, 3, 10)); err != nil {
		t.Errorf("RandomEuclidean: %v", err)
	}
	if err := Check(RandomGraph(rng, 12, 10, 5)); err != nil {
		t.Errorf("RandomGraph: %v", err)
	}
	space, centers := ClusteredEuclidean(rng, 30, 3, 100, 1)
	if space.Len() != 30 || len(centers) != 3 {
		t.Fatalf("ClusteredEuclidean sizes: %d points, %d centers", space.Len(), len(centers))
	}
	if err := Check(space); err != nil {
		t.Errorf("ClusteredEuclidean: %v", err)
	}
}

// Property: random graphs (shortest-path closures) always satisfy the
// triangle inequality and symmetry.
func TestQuickGraphIsMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGraph(rng, 8, 6, 10)
		return Check(g) == nil
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: line metrics are metrics for arbitrary coordinates.
func TestQuickLineIsMetric(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true // skip degenerate float inputs
			}
		}
		return Check(NewLine([]float64{a, b, c, d})) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkGraphBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = RandomGraph(rng, 100, 200, 10)
	}
}

func BenchmarkEuclideanDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	e := RandomEuclidean(rng, 1000, 2, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.Distance(i%1000, (i*7)%1000)
	}
}
