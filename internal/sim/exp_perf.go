package sim

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/core/pdref"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/online"
	"repro/internal/report"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:         "perf",
		Title:      "Throughput: arrivals/second per algorithm across n and |S|, plus the PD serve-loop ladder (event-driven vs incremental vs naive)",
		Reproduces: "systems evaluation of the implementations (no paper counterpart — the paper is theory-only)",
		Run:        runPerf,
		WallClock:  true,
	})
}

// algoBenchRow is one machine-readable throughput measurement of one online
// algorithm on one workload size. Written to BENCH_algos.json when
// Config.BenchDir is set, so per-algorithm serve-throughput regressions —
// e.g. nearest-facility queries degrading with |S| — are machine-checkable.
type algoBenchRow struct {
	N              int     `json:"n"`
	Universe       int     `json:"universe"`
	Points         int     `json:"points"`
	Algorithm      string  `json:"algorithm"`
	ArrivalsPerSec float64 `json:"arrivals_per_sec"`
	Seconds        float64 `json:"seconds"`
	Passes         int     `json:"passes"`
}

type algoBenchFile struct {
	Description string         `json:"description"`
	Seed        int64          `json:"seed"`
	Quick       bool           `json:"quick"`
	Rows        []algoBenchRow `json:"rows"`
}

// pdBenchRow is one machine-readable measurement of the PD-OMFLP serve
// loop on one workload: the event-driven loop (per-arrival bounded
// threshold scans, the production path) against the two modes of its
// reference transcription internal/core/pdref, which rescans every
// candidate on every event — "incremental" keeps running bid rows,
// "naive" rebuilds them from the full credit history every arrival. All
// three produce byte-identical solutions — runPDBench asserts it — so the
// columns measure pure serve-loop cost.
// Written to BENCH_pd.json when Config.BenchDir is set; the CI
// benchmark-regression job gates on event_driven beating incremental.
type pdBenchRow struct {
	N                         int     `json:"n"`
	Universe                  int     `json:"universe"`
	Points                    int     `json:"points"`
	EventPerSec               float64 `json:"event_driven_arrivals_per_sec"`
	IncrementalPerSec         float64 `json:"incremental_arrivals_per_sec"`
	NaivePerSec               float64 `json:"naive_arrivals_per_sec"`
	SpeedupEventVsIncremental float64 `json:"speedup_event_vs_incremental"`
	Speedup                   float64 `json:"speedup"` // incremental vs naive (legacy column)
	EventSeconds              float64 `json:"event_driven_seconds"`
	IncrementalSeconds        float64 `json:"incremental_seconds"`
	NaiveSeconds              float64 `json:"naive_seconds"`
	EventPasses               int     `json:"event_driven_passes"`
	IncrementalPasses         int     `json:"incremental_passes"`
	NaivePasses               int     `json:"naive_passes"`
}

type pdBenchFile struct {
	Description string       `json:"description"`
	Seed        int64        `json:"seed"`
	Quick       bool         `json:"quick"`
	Rows        []pdBenchRow `json:"rows"`
}

// runPerf measures wall-clock throughput of every online algorithm across
// problem sizes, and of PD-OMFLP's event-driven serve loop against
// internal/core/pdref's two modes. The timings are machine-dependent
// (unlike every other experiment's tables, which are bit-reproducible
// under a fixed seed);
// the purpose is to document the practical cost of the algorithms — the
// paper's remark that RAND-OMFLP "is much more efficient to implement"
// (Section 4) becomes measurable here, as does the gap between the
// event-driven serve loop (bounded threshold scans, at most O(k·|cands|)
// per arrival), pdref's incremental mode (O(events·k·|cands|)) and its
// naive mode (O(history·|cands|)) in PD. Every column is the
// median of repeated passes (see timePasses), so sub-millisecond loops are
// not single readings.
//
// Unlike the other experiments, the measurement loops deliberately ignore
// Config.Workers: concurrent timing runs would contend for cores and skew
// the numbers.
func runPerf(cfg Config) (*Result, error) {
	factories := []online.Factory{
		core.PDFactory(core.Options{}),
		core.RandFactory(core.Options{}),
		baseline.PerCommodityPDFactory(nil),
		baseline.NoPredictionFactory(nil),
	}

	type dims struct{ n, u, points int }
	var sweeps []dims
	if cfg.Quick {
		sweeps = []dims{{50, 8, 15}, {100, 8, 15}}
	} else {
		sweeps = []dims{
			{100, 8, 25}, {200, 8, 25}, {400, 8, 25}, // n sweep
			{200, 4, 25}, {200, 16, 25}, {200, 64, 25}, // |S| sweep
		}
	}

	tab := report.NewTable("perf: arrivals per second (higher is better)",
		"n", "|S|", "points", "pd", "rand", "per-commodity", "no-prediction")
	tab.Note = "wall-clock measurements, median of passes totalling ≥ 50 ms — machine-dependent, not seed-reproducible"
	var algoRows []algoBenchRow
	for di, d := range sweeps {
		// Each sweep row owns its rng stream, so the workload of row i is
		// independent of how many rows ran before it.
		rng := workload.Rng(cfg.Seed, int64(di))
		space := metric.RandomEuclidean(rng, d.points, 2, 100)
		tr := workload.Uniform(rng, space, cost.PowerLaw(d.u, 1, 2), d.n, d.u/2+1)
		row := []interface{}{d.n, d.u, d.points}
		for _, f := range factories {
			sec, passes, _ := timePasses(tr.Instance.Requests, func() online.Algorithm {
				return f.New(tr.Instance.Space, tr.Instance.Costs, cfg.Seed)
			})
			row = append(row, float64(d.n)/sec)
			algoRows = append(algoRows, algoBenchRow{
				N:              d.n,
				Universe:       d.u,
				Points:         d.points,
				Algorithm:      f.Name,
				ArrivalsPerSec: float64(d.n) / sec,
				Seconds:        sec,
				Passes:         passes,
			})
		}
		tab.AddRow(row...)
	}

	// PD's event-driven loop vs pdref's incremental and naive modes: the
	// same sequence through all three. The naive mode is
	// O(history × candidates) per arrival, so its gap widens with n.
	pdTab, bench := runPDBench(cfg)
	if cfg.BenchDir != "" {
		if err := writePDBench(cfg, bench); err != nil {
			return nil, err
		}
		if err := writeAlgoBench(cfg, algoRows); err != nil {
			return nil, err
		}
	}

	return &Result{Tables: []*report.Table{tab, pdTab}}, nil
}

// perfMinElapsed is how much serving each perf measurement accumulates:
// passes repeat on fresh instances until their total reaches it.
const perfMinElapsed = 50 * time.Millisecond

// timePasses serves reqs through fresh instances from newAlg, one pass per
// instance, until the passes total at least perfMinElapsed. It returns the
// median pass's seconds (the lower median for an even count), the number of
// passes and the last pass's instance.
func timePasses(reqs []instance.Request, newAlg func() online.Algorithm) (sec float64, passes int, alg online.Algorithm) {
	var times []float64
	for total := time.Duration(0); total < perfMinElapsed; {
		alg = newAlg()
		start := time.Now() //omflp:wallclock — throughput benchmark; readings feed BENCH_*.json, never the solution tables
		for _, r := range reqs {
			alg.Serve(r)
		}
		elapsed := time.Since(start) //omflp:wallclock — ditto
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		times = append(times, elapsed.Seconds())
		total += elapsed
	}
	sort.Float64s(times)
	return times[(len(times)-1)/2], len(times), alg
}

func writeAlgoBench(cfg Config, rows []algoBenchRow) error {
	if err := os.MkdirAll(cfg.BenchDir, 0o755); err != nil {
		return err
	}
	out := algoBenchFile{
		Description: "serve throughput (arrivals/s) of every online algorithm across n and |S| sweeps; each row is the median of passes on fresh instances totalling at least 50 ms",
		Seed:        cfg.Seed,
		Quick:       cfg.Quick,
		Rows:        rows,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.BenchDir, "BENCH_algos.json"), append(data, '\n'), 0o644)
}

func runPDBench(cfg Config) (*report.Table, []pdBenchRow) {
	sizes := pick(cfg, []int{200, 400}, []int{500, 1000, 2000})
	const u, points = 8, 25

	tab := report.NewTable("perf: PD-OMFLP serve loop, event-driven vs incremental vs naive",
		"n", "|S|", "points", "event-driven arrivals/s", "incremental arrivals/s", "naive arrivals/s", "event/incremental")
	tab.Note = "wall-clock, median of passes totalling ≥ 50 ms; incremental and naive = internal/core/pdref, which rescans every candidate on every event; naive also rebuilds the bids from the full history every arrival"

	var rows []pdBenchRow
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed))
		space := metric.RandomEuclidean(rng, points, 2, 100)
		tr := workload.Uniform(rng, space, cost.PowerLaw(u, 1, 2), n, u/2+1)

		reqs, sp, costs := tr.Instance.Requests, tr.Instance.Space, tr.Instance.Costs
		eventSec, eventPasses, eventPD := timePasses(reqs, func() online.Algorithm { return core.NewPDOMFLP(sp, costs, core.Options{}) })
		incSec, incPasses, incPD := timePasses(reqs, func() online.Algorithm { return pdref.New(sp, costs, nil, false, pdref.Running) })
		naiveSec, naivePasses, naivePD := timePasses(reqs, func() online.Algorithm { return pdref.New(sp, costs, nil, false, pdref.Naive) })

		// The three loops must be implementations of the same algorithm,
		// not three algorithms: identical facilities and assignments.
		assertSameSolution(eventPD, incPD, "event-driven vs incremental")
		assertSameSolution(eventPD, naivePD, "event-driven vs naive")

		row := pdBenchRow{
			N:                         n,
			Universe:                  u,
			Points:                    points,
			EventPerSec:               float64(n) / eventSec,
			IncrementalPerSec:         float64(n) / incSec,
			NaivePerSec:               float64(n) / naiveSec,
			SpeedupEventVsIncremental: incSec / eventSec,
			Speedup:                   naiveSec / incSec,
			EventSeconds:              eventSec,
			IncrementalSeconds:        incSec,
			NaiveSeconds:              naiveSec,
			EventPasses:               eventPasses,
			IncrementalPasses:         incPasses,
			NaivePasses:               naivePasses,
		}
		rows = append(rows, row)
		tab.AddRow(n, u, points, row.EventPerSec, row.IncrementalPerSec, row.NaivePerSec, row.SpeedupEventVsIncremental)
	}
	return tab, rows
}

// assertSameSolution panics when two PD serve loops disagree on any opened
// facility or assignment link — the benchmark would otherwise be comparing
// different algorithms and its speedups would be meaningless.
func assertSameSolution(a, b online.Algorithm, label string) {
	sa, sb := a.Solution(), b.Solution()
	if len(sa.Facilities) != len(sb.Facilities) || len(sa.Assign) != len(sb.Assign) {
		panic("perf: PD serve loops diverged (" + label + ")")
	}
	for i := range sa.Facilities {
		if sa.Facilities[i].Point != sb.Facilities[i].Point || !sa.Facilities[i].Config.Equal(sb.Facilities[i].Config) {
			panic("perf: PD serve loops diverged (" + label + ")")
		}
	}
	for i := range sa.Assign {
		if len(sa.Assign[i]) != len(sb.Assign[i]) {
			panic("perf: PD serve loops diverged (" + label + ")")
		}
		for j := range sa.Assign[i] {
			if sa.Assign[i][j] != sb.Assign[i][j] {
				panic("perf: PD serve loops diverged (" + label + ")")
			}
		}
	}
}

func writePDBench(cfg Config, rows []pdBenchRow) error {
	if err := os.MkdirAll(cfg.BenchDir, 0o755); err != nil {
		return err
	}
	out := pdBenchFile{
		Description: "PD-OMFLP serve throughput: event-driven loop vs internal/core/pdref, the reference transcription that rescans every candidate on every event, with running bid rows (incremental) and with bids rebuilt from the history every arrival (naive); byte-identical solutions; each column is the median of passes on fresh instances totalling at least 50 ms",
		Seed:        cfg.Seed,
		Quick:       cfg.Quick,
		Rows:        rows,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.BenchDir, "BENCH_pd.json"), append(data, '\n'), 0o644)
}
