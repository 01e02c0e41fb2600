package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestStateCodec covers a codec that misses a field (flagged at the field),
// coverage through a same-package helper (negative), a complete codec
// (negative), and the //omflp:nostate suppression.
func TestStateCodec(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.StateCodec,
		"repro/internal/algs")
}
