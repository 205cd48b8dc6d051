package learn

import (
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/editdist"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/testutil/floatera"
)

// TestLinkageMatchesFloatEraCatalog checks the learner's linkage
// predicate against the float-era one — fingerprints interned as float
// rows, full-matrix normalized distance compared to the threshold — on
// pairs drawn from devices.GenerateDataset(200, 7): every link/no-link
// decision and every linked distance must be identical, at the default
// threshold and at a tighter and a looser one.
func TestLinkageMatchesFloatEraCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog oracle")
	}
	ds := devices.GenerateDataset(200, 7)
	var fps []fingerprint.Fingerprint
	for _, captures := range ds {
		for i := 0; i < len(captures); i += 20 {
			fps = append(fps, captures[i])
		}
	}
	rows := make([][][]float64, len(fps))
	for i, fp := range fps {
		rows[i] = fp.F.Rows()
	}
	words := floatera.Words(rows...)
	pairs, linked := 0, 0
	for i := range fps {
		for j := i + 1; j < len(fps); j++ {
			want := floatera.Normalized(words[i], words[j])
			for _, limit := range []float64{0.3, DefaultLinkage, 0.7} {
				got, ok := editdist.NormalizedBounded(fps[i].F, fps[j].F, limit)
				if ok != (want <= limit) || (ok && got != want) {
					t.Fatalf("pair (%d, %d) at %v: linked=%v d=%v, float-era d=%v", i, j, limit, ok, got, want)
				}
				if ok {
					linked++
				}
			}
			pairs++
		}
	}
	t.Logf("%d pairs × 3 thresholds identical, %d links", pairs, linked)
}
