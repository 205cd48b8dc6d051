package fingerprint

import (
	"testing"

	"iotsentinel/internal/features"
	"iotsentinel/internal/testutil"
)

func vecWith(size uint64) features.Vector {
	return features.Vector(0).With(features.FeatSize, size)
}

func TestCanonicalKeyDeterministic(t *testing.T) {
	fp := FromVectors([]features.Vector{vecWith(60), vecWith(90), vecWith(60)})
	other := FromVectors([]features.Vector{vecWith(60), vecWith(90), vecWith(60)})
	if fp.CanonicalKey() != other.CanonicalKey() {
		t.Error("identical fingerprints hash to different keys")
	}
	if fp.CanonicalKey() != fp.CanonicalKey() {
		t.Error("CanonicalKey is not stable across calls")
	}
}

func TestCanonicalKeySensitivity(t *testing.T) {
	base := FromVectors([]features.Vector{vecWith(60), vecWith(90)})
	cases := map[string]Fingerprint{
		"different feature value": FromVectors([]features.Vector{vecWith(61), vecWith(90)}),
		"different order":         FromVectors([]features.Vector{vecWith(90), vecWith(60)}),
		"longer F":                FromVectors([]features.Vector{vecWith(60), vecWith(90), vecWith(120)}),
		"shorter F":               FromVectors([]features.Vector{vecWith(60)}),
	}
	for name, fp := range cases {
		if fp.CanonicalKey() == base.CanonicalKey() {
			t.Errorf("%s: collided with the base fingerprint", name)
		}
	}
}

// A fingerprint whose F matches another but whose F′ was tampered with
// must still get its own key: the cache may never alias them.
func TestCanonicalKeyCoversFPrime(t *testing.T) {
	a := FromVectors([]features.Vector{vecWith(60), vecWith(90)})
	b := a
	b.FPrime[0] += 1
	if a.CanonicalKey() == b.CanonicalKey() {
		t.Error("key ignores FPrime")
	}
	c := a
	c.UniqueCount++
	if a.CanonicalKey() == c.CanonicalKey() {
		t.Error("key ignores UniqueCount")
	}
}

func TestCanonicalKeyEmpty(t *testing.T) {
	var zero Fingerprint
	nonEmpty := FromVectors([]features.Vector{vecWith(60)})
	if zero.CanonicalKey() == nonEmpty.CanonicalKey() {
		t.Error("empty fingerprint collides with non-empty")
	}
}

func TestCanonicalKeyZeroAlloc(t *testing.T) {
	vs := make([]features.Vector, 25)
	for i := range vs {
		vs[i] = vecWith(uint64(60 * i))
	}
	fp := FromVectors(vs)
	testutil.AssertZeroAllocs(t, "CanonicalKey", func() { _ = fp.CanonicalKey() })
}

func BenchmarkCanonicalKey(b *testing.B) {
	vs := make([]features.Vector, 25)
	for i := range vs {
		vs[i] = vecWith(uint64(60 * i))
	}
	fp := FromVectors(vs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = fp.CanonicalKey()
	}
}
