package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"iotsentinel/internal/core"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/obs"
)

func synthType(sizes []float64, protoFeat, n, pktLen int, seed int64) []fingerprint.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fingerprint.Fingerprint, 0, n)
	for i := 0; i < n; i++ {
		vs := make([]features.Vector, 0, pktLen)
		for j := 0; j < pktLen; j++ {
			v := features.Vector(0).
				With(features.FeatIP, 1).
				With(protoFeat, 1).
				With(features.FeatSize, uint64(sizes[rng.Intn(len(sizes))])).
				With(features.FeatDstIPCounter, uint64(j%3+1))
			vs = append(vs, v)
		}
		out = append(out, fingerprint.FromVectors(vs))
	}
	return out
}

func trainSmall(t *testing.T) *core.Identifier {
	t.Helper()
	id, err := core.Train(map[core.TypeID][]fingerprint.Fingerprint{
		"alpha": synthType([]float64{60, 70, 80}, features.FeatUDP, 12, 12, 1),
		"beta":  synthType([]float64{200, 210, 220}, features.FeatTCP, 12, 12, 2),
	}, core.Config{Seed: 42})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return id
}

func TestModelStoreSaveLoad(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	s, _ := openT(t, t.TempDir(), Options{Metrics: m})
	defer s.Close()
	ms := s.Models()
	if ms.Exists() {
		t.Fatal("Exists on empty store")
	}
	id := trainSmall(t)
	man, err := ms.Save(id)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if man.Types != 2 || man.SHA256 == "" || man.Size == 0 {
		t.Fatalf("bad manifest: %+v", man)
	}
	if !ms.Exists() {
		t.Fatal("Exists after save")
	}

	re, man2, err := ms.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if man2.SHA256 != man.SHA256 {
		t.Errorf("manifest changed across load")
	}
	// The reloaded bank answers identically.
	for i, fp := range synthType([]float64{60, 70, 80}, features.FeatUDP, 5, 12, 99) {
		a, b := id.Identify(fp), re.Identify(fp)
		if a.Type != b.Type {
			t.Errorf("probe %d: %q vs %q after reload", i, a.Type, b.Type)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Value("store_model_loads_total", "source", "disk"); got != 1 {
		t.Errorf("disk model loads = %v, want 1", got)
	}
	if got := snap.Value("store_model_saves_total"); got != 1 {
		t.Errorf("model saves = %v, want 1", got)
	}
	ms.LoadedFromTraining()
	if got := reg.Snapshot().Value("store_model_loads_total", "source", "train"); got != 1 {
		t.Errorf("train model loads = %v, want 1", got)
	}
}

// TestModelStoreRejectsTamper proves validation-before-swap: any
// mutation of the model file fails the checksum, and a re-hashed but
// structurally broken model fails core validation — either way Load
// returns an error and no identifier.
func TestModelStoreRejectsTamper(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{})
	defer s.Close()
	ms := s.Models()
	if _, err := ms.Save(trainSmall(t)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(ms.dir, modelName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if id, _, err := ms.Load(); err == nil || id != nil {
		t.Fatal("tampered model must not load")
	}

	// Truncated model: checksum catches it too.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ms.Load(); err == nil {
		t.Fatal("truncated model must not load")
	}
}

func TestModelStoreMissingManifest(t *testing.T) {
	ms, err := NewModelStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ms.Load(); err == nil {
		t.Fatal("Load without manifest must error")
	}
}
