package fingerprint_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
)

// The float-era fingerprint, kept as the oracle for the packed one:
// F as 23-float rows and F′ as 276 floats, built exactly as before the
// packet vector became one word. Its input rows come from AppendFloats
// of the packed extractor, which the features package holds to the
// float-era extractor on the same catalog.
type floatRow [features.Count]float64

type floatFingerprint struct {
	F           []floatRow
	FPrime      [fingerprint.FPrimeLen]float64
	UniqueCount int
}

func floatFromRows(vs []floatRow) floatFingerprint {
	var fp floatFingerprint
	for i, v := range vs {
		if i > 0 && v == vs[i-1] {
			continue
		}
		fp.F = append(fp.F, v)
	}
	seen := make(map[floatRow]struct{}, fingerprint.UniquePackets)
	for _, v := range fp.F {
		if fp.UniqueCount == fingerprint.UniquePackets {
			break
		}
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		copy(fp.FPrime[fp.UniqueCount*features.Count:], v[:])
		fp.UniqueCount++
	}
	return fp
}

// identity is the float-era fingerprint's exact byte image: equal
// identities mean equal (F, F′, UniqueCount).
func (fp *floatFingerprint) identity() string {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(len(fp.F)))
	for _, v := range fp.F {
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	for _, x := range fp.FPrime {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return string(binary.LittleEndian.AppendUint64(buf, uint64(fp.UniqueCount)))
}

// catalogPairs fingerprints every capture behind
// devices.GenerateDataset(200, 7) both ways.
func catalogPairs(t *testing.T) ([]fingerprint.Fingerprint, []floatFingerprint) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-catalog oracle")
	}
	var packed []fingerprint.Fingerprint
	var float []floatFingerprint
	rng := rand.New(rand.NewSource(7))
	for _, prof := range devices.Catalog() {
		for i := 0; i < 200; i++ {
			vs := features.ExtractAll(prof.Generate(rng).Packets)
			rows := make([]floatRow, len(vs))
			for j, v := range vs {
				copy(rows[j][:], v.AppendFloats(nil))
			}
			packed = append(packed, fingerprint.FromVectors(vs))
			float = append(float, floatFromRows(rows))
		}
	}
	return packed, float
}

// TestFPrimeMatchesFloatEra checks F, the F′ expansion and UniqueCount
// bit for bit against the float-era construction on the full catalog.
func TestFPrimeMatchesFloatEra(t *testing.T) {
	packed, float := catalogPairs(t)
	for i := range packed {
		p, f := &packed[i], &float[i]
		if len(p.F) != len(f.F) || p.UniqueCount != f.UniqueCount {
			t.Fatalf("fingerprint %d: len(F) %d / UniqueCount %d, float-era %d / %d",
				i, len(p.F), p.UniqueCount, len(f.F), f.UniqueCount)
		}
		for j, row := range p.F.Rows() {
			if floatRow(row) != f.F[j] {
				t.Fatalf("fingerprint %d row %d: %v, float-era %v", i, j, row, f.F[j])
			}
		}
		prime := p.FPrime.AppendFloats(nil)
		for j, x := range prime {
			if math.Float64bits(x) != math.Float64bits(f.FPrime[j]) {
				t.Fatalf("fingerprint %d F′[%d] = %v, float-era %v", i, j, x, f.FPrime[j])
			}
		}
	}
}

// TestCanonicalKeyEqualityMatchesFloatEra checks, over the full catalog
// plus F′-truncated and UniqueCount-shifted variants (the rewrites the
// F′-length ablation makes), that two fingerprints share a CanonicalKey
// exactly when their float-era (F, F′, UniqueCount) are equal.
func TestCanonicalKeyEqualityMatchesFloatEra(t *testing.T) {
	packed, float := catalogPairs(t)
	for i, n := 0, len(packed); i < n; i += 7 {
		p, f := packed[i], float[i]
		keep := 1 + i%fingerprint.UniquePackets
		for j := keep; j < fingerprint.UniquePackets; j++ {
			p.FPrime[j] = 0
		}
		for j := keep * features.Count; j < fingerprint.FPrimeLen; j++ {
			f.FPrime[j] = 0
		}
		p.UniqueCount = min(p.UniqueCount, keep)
		f.UniqueCount = min(f.UniqueCount, keep)
		packed, float = append(packed, p), append(float, f)
		p.UniqueCount++
		f.UniqueCount++
		packed, float = append(packed, p), append(float, f)
	}
	byKey := make(map[fingerprint.Key]string)
	byIdentity := make(map[string]fingerprint.Key)
	for i := range packed {
		k, id := packed[i].CanonicalKey(), float[i].identity()
		if prev, ok := byKey[k]; ok && prev != id {
			t.Fatalf("fingerprint %d shares key %x with a float-era-different fingerprint", i, k)
		}
		if prev, ok := byIdentity[id]; ok && prev != k {
			t.Fatalf("fingerprint %d: float-era-equal fingerprints got keys %x and %x", i, prev, k)
		}
		byKey[k], byIdentity[id] = id, k
	}
	t.Logf("%d fingerprints, %d distinct keys", len(packed), len(byKey))
}
