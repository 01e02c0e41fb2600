// Package algs is the statecodec fixture: algorithms with complete and
// incomplete state codecs.
package algs

import "encoding/json"

// Complete has a codec covering every field: clean.
type Complete struct {
	served int
	opened []int
}

func (c *Complete) Name() string { return "complete" }
func (c *Complete) Serve(p int)  { c.served++; c.opened = append(c.opened, p) }

type completeState struct {
	Served int   `json:"served"`
	Opened []int `json:"opened"`
}

func (c *Complete) MarshalState() ([]byte, error) {
	return json.Marshal(&completeState{Served: c.served, Opened: c.opened})
}

func (c *Complete) UnmarshalState(data []byte) error {
	var st completeState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	c.served = st.Served
	c.opened = st.Opened
	return nil
}

// Leaky has a codec, but the credits field — real serving state — is
// marshaled nowhere: the restore-bit-identity bug class.
type Leaky struct {
	served  int
	credits []float64 // want "field Leaky.credits is referenced in neither MarshalState nor UnmarshalState"
	scratch []int     //omflp:nostate — fixture: per-arrival scratch, never read across arrivals
}

func (l *Leaky) Name() string { return "leaky" }
func (l *Leaky) Serve(p int) {
	l.served++
	l.credits = append(l.credits, float64(p))
	l.scratch = l.scratch[:0]
}

type leakyState struct {
	Served int `json:"served"`
}

func (l *Leaky) MarshalState() ([]byte, error) {
	return json.Marshal(&leakyState{Served: l.served})
}

func (l *Leaky) UnmarshalState(data []byte) error {
	var st leakyState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	l.served = st.Served
	return nil
}

// Delegating marshals one field only through a same-package helper — the
// call-graph walk must count that as a reference.
type Delegating struct {
	served int
	duals  []float64
}

func (d *Delegating) Name() string { return "delegating" }
func (d *Delegating) Serve(p int)  { d.served++; d.duals = append(d.duals, float64(p)) }

type delegatingState struct {
	Served int       `json:"served"`
	Duals  []float64 `json:"duals"`
}

func dualsToState(d *Delegating, st *delegatingState) { st.Duals = d.duals }

func (d *Delegating) MarshalState() ([]byte, error) {
	st := delegatingState{Served: d.served}
	dualsToState(d, &st)
	return json.Marshal(&st)
}

func (d *Delegating) UnmarshalState(data []byte) error {
	var st delegatingState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	d.served = st.Served
	d.duals = st.Duals
	return nil
}
