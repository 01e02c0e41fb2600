package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// FuzzPDUnmarshalState feeds arbitrary bytes to the PD-OMFLP state decoder,
// which reads checkpoints from disk and transfers from sockets. Properties:
// it never panics; it never allocates more than a constant factor of the
// input (every length is bounded by the bytes left); and an accepted input
// re-marshals byte-identically (the layout has one encoding per state).
//
// The corpus is seeded with states marshaled from the suffix-identity rigs
// at several cuts, plus truncated copies. The first argument picks the rig
// the decoding instance is built on.
func FuzzPDUnmarshalState(f *testing.F) {
	type rig struct {
		*stateTestRig
		opts Options
	}
	var rigs []rig
	for seed := int64(1); seed <= 4; seed++ {
		for _, opts := range []Options{{}, {DisablePrediction: true}} {
			rigs = append(rigs, rig{newStateRig(seed, 60), opts})
		}
	}
	for i, rg := range rigs {
		for _, cut := range []int{0, 1, 17, 60} {
			pd := NewPDOMFLP(rg.space, rg.costs, rg.opts)
			for _, r := range rg.requests[:cut] {
				pd.Serve(r)
			}
			blob, err := pd.MarshalState()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), blob)
			f.Add(uint8(i), blob[:len(blob)/2])
			f.Add(uint8(i), blob[:len(blob)-1])
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		rg := rigs[int(which)%len(rigs)]
		pd := NewPDOMFLP(rg.space, rg.costs, rg.opts)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := pd.UnmarshalState(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		again, err := pd.MarshalState()
		if err != nil {
			t.Fatalf("re-marshal of an accepted state: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-marshal to %d different bytes", len(data), len(again))
		}
	})
}

// FuzzRandUnmarshalState is FuzzPDUnmarshalState for RAND-OMFLP, which
// shares PD's binary reader: no panics, allocation bounded by a constant
// factor of the input, and accepted inputs re-marshal byte-identically. The
// corpus is seeded with states marshaled from TestRandStateSuffixIdentical's
// rigs at several cuts, plus truncated copies; the first argument picks the
// rig (substrate, options and rng seed) the decoding instance is built on.
func FuzzRandUnmarshalState(f *testing.F) {
	type rig struct {
		*stateTestRig
		opts Options
		seed int64
	}
	var rigs []rig
	for seed := int64(1); seed <= 4; seed++ {
		for _, opts := range []Options{{}, {DisablePrediction: true}} {
			rigs = append(rigs, rig{newStateRig(seed, 60), opts, seed * 101})
		}
	}
	fresh := func(rg rig) *RandOMFLP {
		return NewRandOMFLP(rg.space, rg.costs, rg.opts, rand.New(rand.NewSource(rg.seed)))
	}
	for i, rg := range rigs {
		for _, cut := range []int{0, 1, 23, 60} {
			ra := fresh(rg)
			for _, r := range rg.requests[:cut] {
				ra.Serve(r)
			}
			blob, err := ra.MarshalState()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), blob)
			f.Add(uint8(i), blob[:len(blob)/2])
			f.Add(uint8(i), blob[:len(blob)-1])
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		ra := fresh(rigs[int(which)%len(rigs)])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := ra.UnmarshalState(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		again, err := ra.MarshalState()
		if err != nil {
			t.Fatalf("re-marshal of an accepted state: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-marshal to %d different bytes", len(data), len(again))
		}
	})
}
