package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/engine"
)

// tiny shrinks a workload so that a whole run takes a few seconds.
func tiny(name string) *workload {
	w := *findWorkload(name)
	w.name = "tiny-" + name
	w.shape.tenants = min(w.shape.tenants, 12)
	w.shape.points = min(w.shape.points, 20)
	w.closedPerS, w.openRate, w.tracePerS = 3000, 2000, 3000
	w.openShare = 1
	w.reps = 2
	if len(w.sample) > 2 {
		w.sample = []int{0, 1, 2, 11}
	}
	return &w
}

func runTiny(t *testing.T, w *workload, trace string) (int, result, string) {
	t.Helper()
	saved := workloads
	workloads = append(append([]*workload(nil), workloads...), w)
	defer func() { workloads = saved }()
	var out bytes.Buffer
	code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace,
		"--dir", t.TempDir()}, &out, io.Discard)
	var res result
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return code, res, out.String()
}

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkNames compares the metrics a run printed with a BENCHMARK.json list.
func checkNames(t *testing.T, got map[string]metricValue, want []struct{ Name, Unit string }) {
	t.Helper()
	var g, w []string
	for n, m := range got {
		g = append(g, n+" "+m.Unit)
	}
	for _, m := range want {
		w = append(w, m.Name+" "+m.Unit)
	}
	sort.Strings(g)
	sort.Strings(w)
	if !reflect.DeepEqual(g, w) {
		t.Errorf("metrics printed %v\nBENCHMARK.json lists %v", g, w)
	}
}

func TestRunsPassTheGateAndPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up in-process deployments")
	}
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			code, res, out := runTiny(t, tiny(name), "0")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			checkNames(t, res.Metrics, bf.EndToEnd)
		})
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up in-process deployments")
	}
	bf := readBenchmarkFile(t)
	code, res, out := runTiny(t, tiny("fanout"), "1")
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, result %+v\n%s", code, res, out)
	}
	checkNames(t, res.Metrics, bf.PerLayer)
}

// A snapshot that differs from the in-process replay must fail the command.
func TestMismatchFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up in-process deployments")
	}
	tamperReplay = func(want map[string][]byte) {
		for k, b := range want {
			var snap engine.TenantSnapshot
			if err := json.Unmarshal(b, &snap); err != nil {
				t.Error(err)
				return
			}
			snap.Cost += 1
			want[k], _ = json.Marshal(&snap)
		}
	}
	defer func() { tamperReplay = nil }()
	code, res, out := runTiny(t, tiny("deep"), "0")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("a tampered reference passed: exit %d, result %+v\n%s", code, res, out)
	}
	if !bytes.Contains([]byte(out), []byte("MISMATCH")) {
		t.Errorf("no mismatch reported:\n%s", out)
	}
}

func TestInputsRepeatForASeed(t *testing.T) {
	w := findWorkload("fanout")
	a, b, c := w.inputs(5, 1000, 100), w.inputs(5, 1000, 100), w.inputs(6, 1000, 100)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a.s, c.s) {
		t.Error("different seeds gave the same arrivals")
	}
	if !bytes.Equal(createBody(a.tenants[3]), createBody(b.tenants[3])) {
		t.Error("create bodies differ for the same seed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "deep", "--trace", "2"},
		{"--workload", "deep", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}

func TestHostClockScalesToTheReference(t *testing.T) {
	var h hostClock
	if err := h.tick(); err != nil {
		t.Fatal(err)
	}
	if h.samples[0] <= 0 {
		t.Fatalf("kernel time %v", h.samples[0])
	}
	h.samples = []float64{0.4, 0.1, 0.2}
	if k := h.scale(); k != refKernel.Seconds()/0.2 {
		t.Errorf("scale = %v, want refKernel over the median kernel time", k)
	}
}
