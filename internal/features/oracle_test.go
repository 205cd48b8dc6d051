package features_test

import (
	"math/rand"
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/features"
)

// TestVectorPackCatalog runs the float-era oracle over every packet of
// the captures behind devices.GenerateDataset(200, 7), with
// per-capture counter state as the fingerprint pipeline extracts them:
// each packed vector must expand to the oracle's row exactly.
func TestVectorPackCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog oracle")
	}
	rng := rand.New(rand.NewSource(7))
	vectors := 0
	for _, prof := range devices.Catalog() {
		for i := 0; i < 200; i++ {
			pkts := prof.Generate(rng).Packets
			want := features.FloatExtractAll(pkts)
			for j, v := range features.ExtractAll(pkts) {
				var got [features.Count]float64
				copy(got[:], v.AppendFloats(nil))
				if got != want[j] {
					t.Fatalf("%s capture %d packet %d: packed %v, float %v", prof.ID, i, j, got, want[j])
				}
				vectors++
			}
		}
	}
	t.Logf("%d packet vectors identical", vectors)
}
