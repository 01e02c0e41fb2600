package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestAnalysisGoldens pins, byte for byte, the quick tables (seeds 1–3) of
// the experiments that check PD-OMFLP's analysis on finished runs: Lemma
// 14's covering instances, Corollaries 8 and 17's dual accounting, and the
// LP sandwich. The tables are rendered as `omflp run` prints them.
func TestAnalysisGoldens(t *testing.T) {
	for _, id := range []string{"lem14", "dual", "lpgap"} {
		for seed := int64(1); seed <= 3; seed++ {
			res, err := RunByID(id, Config{Seed: seed, Quick: true})
			if err != nil {
				t.Fatalf("%s seed %d: %v", id, seed, err)
			}
			var got bytes.Buffer
			for _, tab := range res.Tables {
				if err := tab.Render(&got); err != nil {
					t.Fatal(err)
				}
				got.WriteByte('\n')
			}
			path := filepath.Join("testdata", fmt.Sprintf("%s_seed%d.golden", id, seed))
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s seed %d differs from %s:\n%s", id, seed, path, got.Bytes())
			}
		}
	}
}
