// Package online defines the interface every online OMFLP algorithm in this
// repository implements, plus a replay runner. Keeping the interface in its
// own package lets the core algorithms, the baselines, the lower-bound games
// and the experiment harness depend on it without cycles.
package online

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
)

// Algorithm is an online OMFLP algorithm. Serve must process requests in
// arrival order; decisions are irrevocable — facilities may only be added
// and assignments of earlier requests may not change (Verify checks the
// latter indirectly through solution feasibility at every prefix).
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Serve irrevocably processes the next request.
	Serve(r instance.Request)
	// Solution returns the current solution over all requests served so
	// far. Implementations may return an internal snapshot; callers must
	// not mutate it.
	Solution() *instance.Solution
}

// StateCodec is implemented by algorithms whose complete serving state can
// be serialized and restored without replaying the arrival history. The
// engine hosts only algorithms that implement it (PD-OMFLP and
// RAND-OMFLP); the experiment-only algorithms do not. The contract:
//
//   - MarshalState captures everything future Serve calls depend on (duals,
//     credits, budgets, open facilities, assignments, rng position, ...) so
//     that an instance restored from the bytes serves any suffix of arrivals
//     identically — bit-for-bit — to the original instance.
//   - UnmarshalState must be called on a freshly constructed instance built
//     with the same constructor parameters (space, cost model, options and —
//     for randomized algorithms — the same seed) as the instance that was
//     marshaled. Implementations validate what they can (universe size,
//     candidate count, state schema version) but cannot detect every
//     mismatch; restoring under different parameters is undefined.
//
// The streaming engine's checkpoint format v2 builds on this interface: a
// tenant's checkpoint is its marshaled state plus the short arrival segment
// served since, so a restore replays O(segment) arrivals instead of the full
// history.
type StateCodec interface {
	MarshalState() ([]byte, error)
	UnmarshalState(data []byte) error
}

// Factory constructs a fresh algorithm instance for the given space and cost
// model. Randomized algorithms must derive all randomness from the seed so
// experiment repetitions are reproducible.
type Factory struct {
	Name string
	New  func(space metric.Space, costs cost.Model, seed int64) Algorithm
}

// Run replays the instance's request sequence through a fresh algorithm and
// returns the final solution and its cost. If check is true, the final
// solution is verified for feasibility and an error returned on violation.
func Run(f Factory, in *instance.Instance, seed int64, check bool) (*instance.Solution, float64, error) {
	alg := f.New(in.Space, in.Costs, seed)
	for _, r := range in.Requests {
		alg.Serve(r)
	}
	sol := alg.Solution()
	if check {
		if err := sol.Verify(in); err != nil {
			return nil, 0, fmt.Errorf("online: %s produced infeasible solution: %v", f.Name, err)
		}
	}
	return sol, sol.Cost(in), nil
}
