package engine

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/cost"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Op is one line of the engine's JSON-lines ingestion protocol. Two kinds:
//
//	{"op":"create","tenant":"a","universe":4,
//	 "distances":[[0,1],[1,0]],"cost_by_size":[0,1,1.4,1.7,2]}
//	{"op":"arrive","tenant":"a","point":1,"demands":[0,2]}
//
// "create" registers a tenant on a matrix metric with a size-dependent cost
// table — the same fields a gentrace file trace carries, so any trace can be
// rewritten as an op stream; the universe may not exceed MaxUniverse. With
// "passive":true the tenant is a follower copy: it records its arrivals and
// builds its algorithm instance only when something needs its state.
// "arrive" serves one request, its demand ids checked by Engine.NewRequest.
// Lines are processed in order; per-tenant arrival order is serving order.
type Op struct {
	Op     string `json:"op"`
	Tenant string `json:"tenant"`

	// create
	Universe   int         `json:"universe,omitempty"`
	Distances  [][]float64 `json:"distances,omitempty"`
	CostBySize []float64   `json:"cost_by_size,omitempty"`
	Passive    bool        `json:"passive,omitempty"`

	// arrive
	Point   int   `json:"point"`
	Demands []int `json:"demands,omitempty"`
}

// Apply executes one op against the engine.
func (e *Engine) Apply(op Op) error {
	return e.ApplyTraced(op, nil)
}

// ApplyTraced is Apply carrying an optional trace context; only arrive ops
// record stages (creates are rare control-plane work, not serving traffic).
func (e *Engine) ApplyTraced(op Op, rec *obs.OpRecord) error {
	switch op.Op {
	case "create":
		if len(op.CostBySize) != op.Universe+1 {
			return fmt.Errorf("engine: create %q: cost table has %d entries for universe %d",
				op.Tenant, len(op.CostBySize), op.Universe)
		}
		table, err := cost.NewTable(op.CostBySize)
		if err != nil {
			return fmt.Errorf("engine: create %q: %v", op.Tenant, err)
		}
		if err := metric.CheckMatrix(op.Distances); err != nil {
			return fmt.Errorf("engine: create %q: %v", op.Tenant, err)
		}
		return e.createTenant(op.Tenant, metric.NewMatrix(op.Distances), table, &TenantOrigin{
			Universe:   op.Universe,
			Distances:  op.Distances,
			CostBySize: op.CostBySize,
		}, op.Passive)
	case "arrive":
		if len(op.Demands) == 0 {
			return fmt.Errorf("engine: arrive for %q demands nothing", op.Tenant)
		}
		req, err := e.NewRequest(op.Tenant, op.Point, op.Demands, rec)
		if err != nil {
			return err
		}
		return e.ServeTraced(op.Tenant, req, rec)
	default:
		return fmt.Errorf("engine: unknown op %q", op.Op)
	}
}

// ReplayOps streams a JSON-lines op sequence (blank lines skipped) into the
// engine and returns the number of arrivals served. It does not drain: call
// Drain or SnapshotAll once the stream ends.
func (e *Engine) ReplayOps(r io.Reader) (arrivals int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26) // distance matrices can be wide
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var op Op
		if err := json.Unmarshal([]byte(text), &op); err != nil {
			return arrivals, fmt.Errorf("engine: line %d: %v", line, err)
		}
		if err := e.Apply(op); err != nil {
			return arrivals, fmt.Errorf("engine: line %d: %v", line, err)
		}
		if op.Op == "arrive" {
			arrivals++
		}
	}
	return arrivals, sc.Err()
}

// ReplayTrace fans a generated workload trace (e.g. a gentrace file) out
// across `tenants` engine tenants sharing the trace's space and cost model:
// tenant names are "tenant-000".., and request i goes to tenant i%tenants —
// so one trace exercises multi-tenant sharding end-to-end. It does not
// drain; call Drain or SnapshotAll once done. Returns the arrival count.
func (e *Engine) ReplayTrace(tr *workload.Trace, tenants int) (int, error) {
	if tenants < 1 {
		tenants = 1
	}
	in := tr.Instance
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%03d", i)
		if err := e.CreateTenant(names[i], in.Space, in.Costs); err != nil {
			return 0, err
		}
	}
	for i, r := range in.Requests {
		if err := e.Serve(names[i%tenants], r); err != nil {
			return i, err
		}
	}
	return len(in.Requests), nil
}

// ReplayReader ingests either format the serve CLI accepts: a JSON-lines op
// stream, or a single gentrace file-trace document (fanned out across
// `tenants` tenants). The first non-blank line decides: a parseable op
// object selects op mode, anything else is treated as a trace document.
func (e *Engine) ReplayReader(r io.Reader, tenants int) (int, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	first, err := firstNonBlankLine(br)
	if err != nil {
		return 0, err
	}
	var probe Op
	if json.Unmarshal([]byte(first), &probe) == nil && probe.Op != "" {
		return e.ReplayOps(io.MultiReader(strings.NewReader(first+"\n"), br))
	}
	tr, err := workload.ReadJSON(io.MultiReader(strings.NewReader(first+"\n"), br))
	if err != nil {
		return 0, err
	}
	return e.ReplayTrace(tr, tenants)
}

func firstNonBlankLine(br *bufio.Reader) (string, error) {
	for {
		line, err := br.ReadString('\n')
		if trimmed := strings.TrimRight(line, "\r\n"); strings.TrimSpace(trimmed) != "" {
			return trimmed, nil
		}
		if err == io.EOF {
			return "", fmt.Errorf("engine: empty input")
		}
		if err != nil {
			return "", err
		}
	}
}
