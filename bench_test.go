package omflp

// bench_test.go is the benchmark harness required by DESIGN.md §4: one
// BenchmarkExp_* per paper artifact (each regenerates the artifact's tables
// in Quick mode, so `go test -bench .` re-derives every figure/theorem
// reproduction), plus throughput benchmarks of the core algorithms across
// the problem dimensions the paper's bounds depend on (n and |S|).

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/commodity"
	"repro/internal/core"
	"repro/internal/core/pdref"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/lowerbound"
	"repro/internal/metric"
	"repro/internal/sim"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	// Workers: 0 = GOMAXPROCS — the default parallel harness configuration.
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunByID(id, sim.Config{Seed: 1, Quick: true}); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkHarnessWorkers pins the worker-pool win on a repetition-heavy
// experiment: the same quick thm2 run sequential vs fanned out.
func BenchmarkHarnessWorkers(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = fmt.Sprintf("workers=GOMAXPROCS(%d)", runtime.GOMAXPROCS(0))
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunByID("thm2", sim.Config{Seed: 1, Quick: true, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// One benchmark per reproduced artifact (figures and theorem-scale tables).
func BenchmarkExp_fig1(b *testing.B)                { benchExperiment(b, "fig1") }
func BenchmarkExp_fig2(b *testing.B)                { benchExperiment(b, "fig2") }
func BenchmarkExp_fig3(b *testing.B)                { benchExperiment(b, "fig3") }
func BenchmarkExp_thm2(b *testing.B)                { benchExperiment(b, "thm2") }
func BenchmarkExp_cor3(b *testing.B)                { benchExperiment(b, "cor3") }
func BenchmarkExp_thm4(b *testing.B)                { benchExperiment(b, "thm4") }
func BenchmarkExp_thm18(b *testing.B)               { benchExperiment(b, "thm18") }
func BenchmarkExp_thm19(b *testing.B)               { benchExperiment(b, "thm19") }
func BenchmarkExp_lem12(b *testing.B)               { benchExperiment(b, "lem12") }
func BenchmarkExp_dual(b *testing.B)                { benchExperiment(b, "dual") }
func BenchmarkExp_ablation_pred(b *testing.B)       { benchExperiment(b, "ablation_pred") }
func BenchmarkExp_ablation_candidates(b *testing.B) { benchExperiment(b, "ablation_candidates") }
func BenchmarkExp_ablation_heavy(b *testing.B)      { benchExperiment(b, "ablation_heavy") }
func BenchmarkExp_ablation_reassign(b *testing.B)   { benchExperiment(b, "ablation_reassign") }
func BenchmarkExp_lpgap(b *testing.B)               { benchExperiment(b, "lpgap") }
func BenchmarkExp_lem14(b *testing.B)               { benchExperiment(b, "lem14") }
func BenchmarkExp_perf(b *testing.B)                { benchExperiment(b, "perf") }
func BenchmarkExp_ext_order(b *testing.B)           { benchExperiment(b, "ext_order") }
func BenchmarkExp_ext_split(b *testing.B)           { benchExperiment(b, "ext_split") }

// benchWorkload builds a reusable uniform workload.
func benchWorkload(n, u, points int) *workload.Trace {
	rng := rand.New(rand.NewSource(1))
	space := metric.RandomEuclidean(rng, points, 2, 100)
	return workload.Uniform(rng, space, cost.PowerLaw(u, 1, 2), n, u/2+1)
}

// BenchmarkPDOnlineThroughput measures full-sequence processing for
// PD-OMFLP across n (fixed |S|) — the log n axis of Theorem 4.
func BenchmarkPDOnlineThroughput(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		tr := benchWorkload(n, 8, 25)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pd := core.NewPDOMFLP(tr.Instance.Space, tr.Instance.Costs, core.Options{})
				for _, r := range tr.Instance.Requests {
					pd.Serve(r)
				}
			}
		})
	}
}

// BenchmarkPDBidAccounting compares PD's event-driven serve loop
// (production) across n with the two modes of its reference transcription
// internal/core/pdref, which rescans every candidate on every event:
// "incremental" keeps running bid rows, "naive" rebuilds them from the full
// credit history on every arrival. Run with benchstat to verify the
// event-vs-incremental serve-throughput claim (the perf experiment's
// BENCH_pd.json reports the same comparison machine-readably).
func BenchmarkPDBidAccounting(b *testing.B) {
	newByMode := map[string]func(*workload.Trace) Algorithm{
		"event": func(tr *workload.Trace) Algorithm {
			return core.NewPDOMFLP(tr.Instance.Space, tr.Instance.Costs, core.Options{})
		},
		"incremental": func(tr *workload.Trace) Algorithm {
			return pdref.New(tr.Instance.Space, tr.Instance.Costs, nil, false, pdref.Running)
		},
		"naive": func(tr *workload.Trace) Algorithm {
			return pdref.New(tr.Instance.Space, tr.Instance.Costs, nil, false, pdref.Naive)
		},
	}
	for _, n := range []int{500, 2000} {
		tr := benchWorkload(n, 8, 25)
		for _, mode := range []string{"event", "incremental", "naive"} {
			construct := newByMode[mode]
			b.Run(fmt.Sprintf("mode=%s/n=%d", mode, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pd := construct(tr)
					for _, r := range tr.Instance.Requests {
						pd.Serve(r)
					}
				}
			})
		}
	}
}

// BenchmarkPDUniverseScaling sweeps |S| (fixed n) — the √|S| axis.
func BenchmarkPDUniverseScaling(b *testing.B) {
	for _, u := range []int{4, 16, 64} {
		tr := benchWorkload(80, u, 20)
		b.Run(fmt.Sprintf("S=%d", u), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pd := core.NewPDOMFLP(tr.Instance.Space, tr.Instance.Costs, core.Options{})
				for _, r := range tr.Instance.Requests {
					pd.Serve(r)
				}
			}
		})
	}
}

// BenchmarkPDDeepHistory serves one PD tenant through a long history in the
// shape of the serving benchmark's `deep` workload (|S| = 32, 200 points
// uniform in the unit square, an explicit distance matrix, f(k) = 1.5·k^0.6,
// 1–4 Zipf-popular commodities per arrival), so `go test -bench` reproduces
// that workload's core ledger row without the serving stack. It reports
// ns/arrival, allocs/arrival and heap_B/arrival, the live heap the served
// instance holds after a collection. The sealed variant also marshals the
// state every 4,096 arrivals, as the engine seals a tenant by default, and
// reports the marshals' share as seal_ns/arrival.
func BenchmarkPDDeepHistory(b *testing.B) {
	const u, points, arrivals = 32, 200, 65536
	rng := rand.New(rand.NewSource(1))
	xs, ys := make([]float64, points), make([]float64, points)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	d := make([][]float64, points)
	for i := range d {
		d[i] = make([]float64, points)
		for j := range d[i] {
			d[i][j] = math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
		}
	}
	bySize := make([]float64, u+1)
	for k := 1; k <= u; k++ {
		bySize[k] = 1.5 * math.Pow(float64(k), 0.6)
	}
	costs, err := cost.NewTable(bySize)
	if err != nil {
		b.Fatal(err)
	}
	space := metric.NewMatrix(d)
	zipf := rand.NewZipf(rng, 1.2, 1, u-1)
	reqs := make([]instance.Request, arrivals)
	for i := range reqs {
		var ids []int
		for k := 1 + rng.Intn(4); len(ids) < k; {
			if c := int(zipf.Uint64()); !slices.Contains(ids, c) {
				ids = append(ids, c)
			}
		}
		reqs[i] = instance.Request{Point: rng.Intn(points), Demands: commodity.New(ids...)}
	}
	for _, v := range []struct {
		name      string
		sealEvery int
	}{{"serve", 0}, {"sealed", 4096}} {
		b.Run(v.name, func(b *testing.B) {
			var pd *core.PDOMFLP
			var sealNs int64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pd = core.NewPDOMFLP(space, costs, core.Options{})
				for j, r := range reqs {
					pd.Serve(r)
					if v.sealEvery > 0 && (j+1)%v.sealEvery == 0 {
						start := time.Now()
						if _, err := pd.MarshalState(); err != nil {
							b.Fatal(err)
						}
						sealNs += time.Since(start).Nanoseconds()
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			served := float64(b.N) * arrivals
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/served, "ns/arrival")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/served, "allocs/arrival")
			if v.sealEvery > 0 {
				b.ReportMetric(float64(sealNs)/served, "seal_ns/arrival")
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			held := after.HeapAlloc
			runtime.KeepAlive(pd)
			pd = nil
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(held-after.HeapAlloc)/arrivals, "heap_B/arrival")
		})
	}
}

// BenchmarkRandOnlineThroughput: RAND-OMFLP across n.
func BenchmarkRandOnlineThroughput(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		tr := benchWorkload(n, 8, 25)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ra := core.NewRandOMFLP(tr.Instance.Space, tr.Instance.Costs, core.Options{},
					rand.New(rand.NewSource(int64(i))))
				for _, r := range tr.Instance.Requests {
					ra.Serve(r)
				}
			}
		})
	}
}

// BenchmarkGameScaling: the Theorem 2 adversary across |S|.
func BenchmarkGameScaling(b *testing.B) {
	for _, u := range []int{64, 256, 1024} {
		g, err := lowerbound.NewTheorem2Game(u)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("S=%d", u), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = g.Play(core.PDFactory(core.Options{}), rng, int64(i))
			}
		})
	}
}

// BenchmarkSingleServe: latency of one PD arrival against a warm state.
func BenchmarkSingleServe(b *testing.B) {
	tr := benchWorkload(200, 16, 30)
	pd := core.NewPDOMFLP(tr.Instance.Space, tr.Instance.Costs, core.Options{})
	for _, r := range tr.Instance.Requests {
		pd.Serve(r)
	}
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pd.Serve(instance.Request{
			Point:   rng.Intn(tr.Instance.Space.Len()),
			Demands: commodity.RandomSubset(rng, 16, 4),
		})
	}
}
