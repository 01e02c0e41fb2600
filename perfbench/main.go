// Command perfbench is the repository's benchmark: it stands up an
// in-process deployment through the public constructors (server.New,
// cluster.New), drives one seeded workload over loopback, checks the
// outputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run replays the workload's arrivals into each layer in
// turn and reports the per-layer ledger. --repeat N runs the workload N
// times in child processes and prints each metric's median, quartiles,
// range and spread; with --sets K it runs K such sets with their runs
// interleaved, and prints how far each set's medians sit from the first
// set's. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload deep --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, their sample counts and its failures.
type report struct {
	e2e        map[string]metricValue
	samples    map[string]int
	layers     map[string]metricValue
	notes      []string
	attempted  int64
	failed     int64
	mismatches []string
}

func newReport() *report {
	return &report{e2e: map[string]metricValue{}, samples: map[string]int{}, layers: map[string]metricValue{}}
}

// set records an end-to-end metric and the samples behind it.
func (r *report) set(name, unit string, v float64, samples int) {
	r.e2e[name] = metricValue{v, unit}
	r.samples[name] = samples
}

// setMedian records the median of xs, noting every sample.
func (r *report) setMedian(name, unit string, xs []float64) {
	r.set(name, unit, median(xs), len(xs))
	r.note("%s samples: %.4g", name, xs)
}

// setScaled records the median of the wall-clock samples xs times k, the
// run's factor to the reference speed, and notes the raw figures.
func (r *report) setScaled(name, unit string, xs []float64, k float64) {
	r.set(name, unit, median(xs)*k, len(xs))
	if len(xs) > 10 {
		r.note("%s raw median %.4g over %d samples", name, median(xs), len(xs))
	} else {
		r.note("%s raw samples: %.4g", name, xs)
	}
}

// layer records a per-layer metric.
func (r *report) layer(name, unit string, v float64) { r.layers[name] = metricValue{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// phase notes how long a phase took, so the run's time budget is visible.
func (r *report) phase(name string, start time.Time) {
	r.note("phase %s took %.2f s", name, time.Since(start).Seconds())
}

func (r *report) attempt(n int64) { r.attempted += n }

func (r *report) fail(n int64, why string) {
	r.failed += n
	r.note("failed %d: %s", n, why)
}

func (r *report) mismatch(format string, args ...any) {
	r.failed++
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable lines and then the JSON result line.
func (r *report) print(out io.Writer, workload string, trace bool, err error) {
	ms := r.e2e
	if trace {
		ms = r.layers
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("%-7s %-28s %16.6g %-6s", workload, n, m.Value, m.Unit)
		if s, ok := r.samples[n]; ok && !trace {
			line += fmt.Sprintf(" n=%d", s)
		}
		fmt.Fprintln(out, line)
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "%-7s note: %s\n", workload, n)
	}
	for _, m := range r.mismatches {
		fmt.Fprintf(out, "%-7s MISMATCH: %s\n", workload, m)
	}
	if err != nil {
		fmt.Fprintf(out, "%-7s ERROR: %v\n", workload, err)
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	fmt.Fprintf(out, "%-7s failure share: %d / %d = %.6g\n", workload, r.failed, attempted, float64(r.failed)/float64(attempted))
	res := result{Correct: err == nil && len(r.mismatches) == 0, Attempted: attempted, Failed: r.failed, Metrics: ms}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		// A NaN or Inf metric means a phase measured nothing.
		res.Correct, res.Metrics = false, map[string]metricValue{}
		b, _ = json.Marshal(res)
	}
	fmt.Fprintln(out, string(b))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: deep or fanout")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "run length; the timed phases are sized from it")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	repeat := fs.Int("repeat", 0, "steadiness report: run the workload this many times with seeds seed, seed+1, ...")
	sets := fs.Int("sets", 1, "steadiness report: this many sets of --repeat runs, interleaved; set k takes seeds seed+k*repeat, ...")
	dir := fs.String("dir", filepath.Join(".bench_build", "run"), "scratch directory for checkpoints and route logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || *sets < 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload deep|fanout, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if *repeat > 0 {
		if err := steadiness(stdout, w.name, *seed, *seconds, *trace, *repeat, *sets, *dir); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	runDir, err := filepath.Abs(filepath.Join(*dir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(runDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	rep := newReport()
	if *trace == 1 {
		err = runTrace(w, *seed, *seconds, runDir, rep)
	} else {
		err = runE2E(w, *seed, *seconds, runDir, rep)
	}
	if err == nil {
		err = mismatchError(rep)
	}
	if b, rerr := os.ReadFile("/proc/self/status"); rerr == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "VmHWM:") {
				rep.note("peak resident memory %s", strings.TrimSpace(strings.TrimPrefix(l, "VmHWM:")))
			}
		}
	}
	rep.print(stdout, w.name, *trace == 1, err)
	if err != nil {
		return 1
	}
	return 0
}

// steadiness runs sets × n runs of the workload in child processes, the
// sets' runs interleaved so that a change in the host's speed reaches every
// set alike, keeps every run's result on record, and prints each metric's
// spread per set and each set's median shift from the first set.
func steadiness(out io.Writer, workload string, seed int64, seconds float64, trace, n, sets int, dir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return err
	}
	logPath := filepath.Join(filepath.Dir(dir), fmt.Sprintf("steady-%s-trace%d.jsonl", workload, trace))
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	outPath := strings.TrimSuffix(logPath, ".jsonl") + ".log"
	outf, err := os.OpenFile(outPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer outf.Close()
	values := make([]map[string][]float64, sets)
	units := map[string]string{}
	for k := range values {
		values[k] = map[string][]float64{}
	}
	for i := 0; i < n; i++ {
		for k := 0; k < sets; k++ {
			s := seed + int64(k*n+i)
			cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--dir", dir)
			var buf bytes.Buffer
			cmd.Stdout, cmd.Stderr = &buf, os.Stderr
			// A run must not outlive the report.
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			runErr := cmd.Run()
			outf.Write(buf.Bytes())
			last := lastLine(buf.Bytes())
			fmt.Fprintf(logf, "{\"set\":%d,\"seed\":%d,\"result\":%s}\n", k, s, orNull(last))
			var res result
			if err := json.Unmarshal(last, &res); err != nil || runErr != nil || !res.Correct || res.Failed > 0 {
				return fmt.Errorf("run with seed %d failed (%v): %s", s, runErr, last)
			}
			for name, m := range res.Metrics {
				values[k][name] = append(values[k][name], m.Value)
				units[name] = m.Unit
			}
			fmt.Fprintf(out, "run %d/%d of set %d, seed %d done\n", i+1, n, k, s)
		}
	}
	keys := make([]string, 0, len(units))
	for name := range units {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "%-7s %3s %-28s %-6s %3s %14s %14s %14s %14s %14s %8s %8s\n",
		"wl", "set", "metric", "unit", "n", "median", "q1", "q3", "min", "max", "iqr/med", "shift")
	summary := make([]map[string]map[string]float64, sets)
	for k := range summary {
		summary[k] = map[string]map[string]float64{}
		for _, name := range keys {
			v := values[k][name]
			q1, q2, q3 := quartiles(v)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, x := range v {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			spread := (q3 - q1) / math.Abs(q2)
			shift := 0.0
			if k > 0 {
				shift = q2/summary[0][name]["median"] - 1
			}
			fmt.Fprintf(out, "%-7s %3d %-28s %-6s %3d %14.6g %14.6g %14.6g %14.6g %14.6g %8.4f %+8.4f\n",
				workload, k, name, units[name], len(v), q2, q1, q3, lo, hi, spread, shift)
			summary[k][name] = map[string]float64{"median": q2, "q1": q1, "q3": q3, "min": lo, "max": hi,
				"n": float64(len(v)), "spread": spread, "shift": shift}
		}
	}
	fmt.Fprintf(out, "runs on record in %s, their full output in %s\n", logPath, outPath)
	b, err := json.Marshal(map[string]any{"workload": workload, "trace": trace, "runs": n, "sets": summary})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	return nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if t := bytes.TrimSpace(sc.Bytes()); len(t) > 0 {
			last = append(last[:0], t...)
		}
	}
	return last
}

func orNull(b []byte) string {
	if json.Valid(b) {
		return string(b)
	}
	return strconv.Quote(strings.TrimSpace(string(b)))
}
