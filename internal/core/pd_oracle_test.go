package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/core/pdref"
	"repro/internal/instance"
)

// recordAt decodes arrival i's record.
func recordAt(pd *PDOMFLP, i int) pdRecord {
	start := 0
	if i > 0 {
		start = pd.recEnd[i-1]
	}
	var rec pdRecord
	rec.decode(pd.recs[start:pd.recEnd[i]])
	return rec
}

// oracleArrival is what the field-by-field encoder reads per arrival and a
// PDOMFLP no longer keeps as fields: the request's point and demands, its
// frozen duals, and the facility count once it was served.
type oracleArrival struct {
	point      int
	ids        []int
	duals      []float64
	facilities int
}

// pdOracle is the field-by-field PD state encoder that MarshalState
// replaced with a copy of the record section. It writes schema 2 from the
// instance's facilities, assignments, credits and bid rows, and from the
// arrival history it was handed, so a record that drifts from the ledgers
// it duplicates (a credit lowered without its record slot) shows up as a
// byte difference.
type pdOracle struct {
	hist []oracleArrival
}

// served records request r after pd served it with the given frozen duals.
func (o *pdOracle) served(pd *PDOMFLP, r instance.Request, duals []float64) {
	o.hist = append(o.hist, oracleArrival{
		point:      r.Point,
		ids:        r.Demands.IDs(),
		duals:      append([]float64(nil), duals...),
		facilities: len(pd.fx.sol.Facilities),
	})
}

// marshal encodes pd's state field by field.
func (o *pdOracle) marshal(pd *PDOMFLP) []byte {
	demanded, links := 0, 0
	for i, a := range o.hist {
		demanded += len(a.ids)
		links += len(pd.fx.sol.Assign[i])
	}
	return codec.Encode(func(w *codec.Writer) {
		w.Uint(stateSchema)
		w.Uint(pd.u)
		w.Uint(len(pd.ct.cands))
		encodeFacilities(w, pd.fx)
		w.Uint(len(o.hist))
		w.Uint(demanded)
		w.Uint(links)
		opened := 0
		for i, a := range o.hist {
			w.Uint(a.point)
			w.Uint(len(a.ids))
			for j, e := range a.ids {
				w.Uint(e)
				w.Float(a.duals[j])
			}
			w.Uint(a.facilities - opened)
			opened = a.facilities
			w.Uint(len(pd.fx.sol.Assign[i]))
			for _, f := range pd.fx.sol.Assign[i] {
				w.Uint(f)
			}
			w.Float(pd.creditLarge[i].credit)
		}
		for _, credits := range pd.creditSmall {
			for _, cr := range credits {
				w.Float(cr.credit)
			}
		}
		w.Floats(pd.bidLarge)
		for e, credits := range pd.creditSmall {
			if len(credits) > 0 {
				w.Floats(pd.bidSmall[e])
			}
		}
	})
}

// check fails the test unless pd's MarshalState equals the oracle's bytes.
func (o *pdOracle) check(t *testing.T, label string, pd *PDOMFLP) {
	t.Helper()
	got, err := pd.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if want := o.marshal(pd); !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%s after %d arrivals: MarshalState (%d bytes) differs from the field-by-field encoder (%d bytes) at byte %d",
			label, len(o.hist), len(got), len(want), at)
	}
}

// TestPDStateMatchesOracleDeep serves a stream in the serving benchmark's
// `deep` shape (|S| = 32, 200 points) and holds MarshalState to the
// field-by-field encoder fed pdref's duals at every large-facility opening
// — the event that lowers old large credits and so rewrites the tails of
// old records — and every 1,000 arrivals, on both sides of a restore.
func TestPDStateMatchesOracleDeep(t *testing.T) {
	const arrivals, cut = 3000, 1700
	sh := hashShape{universe: 32, points: 200, maxDemand: 4, zipf: 1.2, facility: 1.5}
	rng := rand.New(rand.NewSource(5))
	space, costs := sh.substrate(rng)
	zipf := rand.NewZipf(rng, sh.zipf, 1, uint64(sh.universe-1))
	pd := NewPDOMFLP(space, costs, Options{})
	ref := newRef(space, costs, Options{}, pdref.Running)
	var oracle pdOracle
	openings := 0
	for i := 0; i < arrivals; i++ {
		if i == cut {
			blob, err := pd.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			pd = NewPDOMFLP(space, costs, Options{})
			if err := pd.UnmarshalState(blob); err != nil {
				t.Fatal(err)
			}
		}
		r := sh.arrival(rng, zipf)
		_, before := pd.FacilityCounts()
		pd.Serve(r)
		ref.Serve(r)
		oracle.served(pd, r, ref.Duals()[i])
		_, after := pd.FacilityCounts()
		if after > before || (i+1)%1000 == 0 {
			oracle.check(t, "deep", pd)
		}
		openings += after - before
	}
	if openings < 3 {
		t.Fatalf("%d large facilities opened in %d arrivals; the stream no longer rewrites old records", openings, arrivals)
	}
}
