package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/commodity"
	"repro/internal/core/pdref"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
)

// This file pins the event-driven serve loop (per-arrival T3/T4 threshold
// precomputation + scalar event loop + candidate-indexed credit refresh)
// against internal/core/pdref, a plain transcription of Algorithm 1 that
// rescans every candidate on every event. The contract is byte-identity,
// not tolerance: pdref's running mode keeps the same bid rows, so every
// facility, assignment link, dual value, credit and bid must be EXACTLY
// equal — any ulp of divergence in a freeze decision would eventually open
// different facilities. pdref's naive mode is additionally diffed with the
// usual float tolerance, since its bid sums associate differently.

// newRef builds pdref's transcription with opts' candidates and prediction
// switch.
func newRef(space metric.Space, costs cost.Model, opts Options, mode pdref.Mode) *pdref.PD {
	return pdref.New(space, costs, opts.Candidates, opts.DisablePrediction, mode)
}

// exactDiff describes the first difference between two slices compared
// with ==, or returns "" when they are equal.
func exactDiff[T comparable](got, want []T) string {
	if len(got) != len(want) {
		return fmt.Sprintf(": %d entries vs reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("[%d] = %+v vs reference %+v", i, got[i], want[i])
		}
	}
	return ""
}

// refCredits converts a credit ledger to pdref's credit type.
func refCredits(credits []pdCredit) []pdref.Credit {
	out := make([]pdref.Credit, len(credits))
	for j, cr := range credits {
		out[j] = pdref.Credit{Point: cr.point, Value: cr.credit}
	}
	return out
}

// comparePDExact asserts byte-identical solutions, duals, credit ledgers,
// bid rows and DualTotal between the event-driven instance and pdref's
// running mode after arrival step.
func comparePDExact(t *testing.T, label string, step int, ev *PDOMFLP, ref *pdref.PD) {
	t.Helper()
	evSol, refSol := ev.Solution(), ref.Solution()
	if len(evSol.Facilities) != len(refSol.Facilities) {
		t.Fatalf("%s step %d: %d facilities vs reference %d",
			label, step, len(evSol.Facilities), len(refSol.Facilities))
	}
	for fi := range evSol.Facilities {
		a, b := evSol.Facilities[fi], refSol.Facilities[fi]
		if a.Point != b.Point || !a.Config.Equal(b.Config) {
			t.Fatalf("%s step %d: facility %d = (%d,%v) vs reference (%d,%v)",
				label, step, fi, a.Point, a.Config, b.Point, b.Config)
		}
	}
	if d := exactDiff(evSol.Assign[step], refSol.Assign[step]); d != "" {
		t.Fatalf("%s step %d: links%s", label, step, d)
	}
	if d := exactDiff(recordAt(ev, step).duals, ref.Duals()[step]); d != "" {
		t.Fatalf("%s step %d: duals%s (must be bit-identical)", label, step, d)
	}
	for e := range ev.creditSmall {
		if d := exactDiff(refCredits(ev.creditSmall[e]), ref.SmallCredits(e)); d != "" {
			t.Fatalf("%s step %d: creditSmall[%d]%s", label, step, e, d)
		}
		if d := exactDiff(ev.bidSmall[e], ref.SmallBids(e)); d != "" {
			t.Fatalf("%s step %d: bidSmall[%d]%s", label, step, e, d)
		}
	}
	if d := exactDiff(refCredits(ev.creditLarge), ref.LargeCredits()); d != "" {
		t.Fatalf("%s step %d: creditLarge%s", label, step, d)
	}
	if d := exactDiff(ev.bidLarge, ref.LargeBids()); d != "" {
		t.Fatalf("%s step %d: bidLarge%s", label, step, d)
	}
	if ev.DualTotal() != ref.DualTotal() {
		t.Fatalf("%s step %d: DualTotal %v vs reference %v", label, step, ev.DualTotal(), ref.DualTotal())
	}
}

// runExactDiff replays one request sequence through the event-driven loop
// and pdref's running mode, asserting exact equality per arrival.
func runExactDiff(t *testing.T, label string, space metric.Space, costs cost.Model, opts Options, reqs []instance.Request) {
	t.Helper()
	ev := NewPDOMFLP(space, costs, opts)
	ref := newRef(space, costs, opts, pdref.Running)
	for i, r := range reqs {
		ev.Serve(r)
		ref.Serve(r)
		comparePDExact(t, label, i, ev, ref)
	}
}

func randomRequests(rng *rand.Rand, space metric.Space, u, n int) []instance.Request {
	reqs := make([]instance.Request, n)
	for i := range reqs {
		reqs[i] = instance.Request{
			Point:   rng.Intn(space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		}
	}
	return reqs
}

// TestPDEventMatchesLoopReferenceDeep drives long random workloads — deep
// enough for large facilities to open, credits to be lowered repeatedly and
// the Constraint (2) sweep-skip to trigger many times — through the event
// loop and pdref.
func TestPDEventMatchesLoopReferenceDeep(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := 2 + rng.Intn(10)
		space := metric.RandomEuclidean(rng, 5+rng.Intn(25), 2, 80)
		costs := cost.PowerLaw(u, rng.Float64()*2, 0.5+rng.Float64()*3)
		runExactDiff(t, "deep", space, costs, Options{},
			randomRequests(rng, space, u, 300))
	}
}

func TestPDEventMatchesLoopReferenceNoPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	u := 5
	space := metric.RandomLine(rng, 14, 40)
	costs := cost.PowerLaw(u, 1.2, 2)
	runExactDiff(t, "no-prediction", space, costs, Options{DisablePrediction: true},
		randomRequests(rng, space, u, 120))
}

// TestPDEventZeroCostTies forces Δ=0 events on every arrival: all opening
// costs are zero, so Constraint (3) (and (4)) are tight immediately for
// every candidate at distance 0, and the tie-break (nearest candidate,
// lowest index on equal distance) decides everything.
func TestPDEventZeroCostTies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := 4
	// NewSizeCost skips the positivity validation of the public
	// constructors: zero opening costs are exactly the degenerate tie the
	// event loop must survive.
	costs := cost.NewSizeCost(u, func(int) float64 { return 0 }, "zero")
	// Colocated points: a matrix metric where points {0,1} and {2,3}
	// coincide — zero distances off the diagonal, so several candidates are
	// tight at the same Δ=0 event with equal dCand.
	d := [][]float64{
		{0, 0, 5, 5},
		{0, 0, 5, 5},
		{5, 5, 0, 0},
		{5, 5, 0, 0},
	}
	space := metric.NewMatrix(d)
	runExactDiff(t, "zero-cost", space, costs, Options{},
		randomRequests(rng, space, u, 80))
}

// TestPDEventColocatedCandidates restricts candidates to duplicated points
// so the freeze-time nearest-tight-candidate scan has genuine distance ties
// that only the candidate-index order breaks.
func TestPDEventColocatedCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := 3
	pts := [][]float64{{0, 0}, {0, 0}, {3, 4}, {3, 4}, {6, 0}}
	space := metric.NewEuclidean(pts)
	costs := cost.PowerLaw(u, 1, 1)
	for _, cands := range [][]int{nil, {1, 0, 3, 2}, {4, 1}} {
		runExactDiff(t, "colocated", space, costs, Options{Candidates: cands},
			randomRequests(rng, space, u, 120))
	}
}

// TestPDEventSingletonUniverse exercises |S|=1, where a large facility's
// configuration equals the singleton's and Constraints (2)/(4) compete with
// (1)/(3) on every event (sum slope == single slope).
func TestPDEventSingletonUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	space := metric.RandomEuclidean(rng, 10, 2, 30)
	costs := cost.PowerLaw(1, 1.5, 2)
	reqs := make([]instance.Request, 150)
	for i := range reqs {
		reqs[i] = instance.Request{Point: rng.Intn(space.Len()), Demands: commodity.New(0)}
	}
	runExactDiff(t, "singleton", space, costs, Options{}, reqs)
}

// TestPDEventToleranceEdges plants thresholds a hair apart — well inside
// the pdEps*(1+sumA) freeze window but separated by far more than the
// pdMarginEps prefilter slack — so several candidates sit inside the tol
// window at the freezing event and the exact per-candidate scan must pick
// among them identically in both loops.
func TestPDEventToleranceEdges(t *testing.T) {
	u := 2
	// A line where candidate distances differ by ~1e-11: inside tol for
	// moderate sums, so the tol window holds several candidates at once.
	pos := []float64{0, 1e-11, 2e-11, 1, 1 + 1e-11}
	space := metric.NewLine(pos)
	costs := cost.PowerLaw(u, 1, 1)
	rng := rand.New(rand.NewSource(17))
	runExactDiff(t, "tol-edges", space, costs, Options{},
		randomRequests(rng, space, u, 100))

	// And against pdref's naive mode with the usual tolerance, closing the
	// three-way diff (event loop + incremental bids vs naive everything).
	rng = rand.New(rand.NewSource(17))
	ev := NewPDOMFLP(space, costs, Options{})
	naive := newRef(space, costs, Options{}, pdref.Naive)
	for i, r := range randomRequests(rng, space, u, 100) {
		ev.Serve(r)
		naive.Serve(r)
		compareStates(t, 17, i, ev, naive)
		if t.Failed() {
			t.Fatalf("three-way diff diverged at step %d", i)
		}
	}
}

// TestPDEventUniformZeroDistance collapses the whole space to a single
// location (uniform metric with d=0): every constraint for every candidate
// goes tight at the same instant, the ultimate Δ=0 stress.
func TestPDEventUniformZeroDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	u := 3
	space := metric.NewUniform(4, 0)
	costs := cost.PowerLaw(u, 0.7, 1)
	runExactDiff(t, "uniform-zero", space, costs, Options{},
		randomRequests(rng, space, u, 60))
}

// TestPDEventRestoredInstanceServesIdentically restores mid-stream state
// into a fresh event-driven instance (rebuilding the derived liveSmall list
// in ascending order rather than first-credit order) and asserts the suffix
// still matches pdref exactly — the derived-state rebuild cannot perturb
// the sweep results.
func TestPDEventRestoredInstanceServesIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	u := 6
	space := metric.RandomEuclidean(rng, 15, 2, 60)
	costs := cost.PowerLaw(u, 1, 2)
	reqs := randomRequests(rng, space, u, 200)

	ev := NewPDOMFLP(space, costs, Options{})
	ref := newRef(space, costs, Options{}, pdref.Running)
	for _, r := range reqs[:120] {
		ev.Serve(r)
		ref.Serve(r)
	}
	state, err := ev.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewPDOMFLP(space, costs, Options{})
	if err := restored.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs[120:] {
		restored.Serve(r)
		ref.Serve(r)
		comparePDExact(t, "restored", 120+i, restored, ref)
	}
}

// TestPDEventDualsFinite guards the scratch reuse: an arrival's record must
// hold its own duals, which later arrivals (reusing the scratch they were
// raised in) leave as they were.
func TestPDEventDualsFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	u := 4
	space := metric.RandomEuclidean(rng, 12, 2, 50)
	costs := cost.PowerLaw(u, 1, 2)
	pd := NewPDOMFLP(space, costs, Options{})
	var want [][]float64
	for i := 0; i < 50; i++ {
		pd.Serve(instance.Request{
			Point:   rng.Intn(space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		})
		want = append(want, recordAt(pd, i).duals)
	}
	_, rows, _ := pd.Duals()
	for i := range rows {
		for j := range rows[i] {
			if rows[i][j] != want[i][j] || math.IsNaN(rows[i][j]) {
				t.Fatalf("dual row %d mutated after later arrivals: %v, recorded %v",
					i, rows[i], want[i])
			}
		}
	}
}
