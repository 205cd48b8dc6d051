package editdist

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/testutil"
	"iotsentinel/internal/testutil/floatera"
)

// naiveDistance is the retired full-matrix implementation, kept
// verbatim as the oracle for the banded walk: the entire O(n·m) DP,
// no band, no early exit.
func naiveDistance(a, b []int) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev2 := make([]int, lb+1)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d := min3(
				prev[j]+1,
				cur[j-1]+1,
				prev[j-1]+cost,
			)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if t := prev2[j-2] + 1; t < d {
					d = t
				}
			}
			cur[j] = d
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

// naiveDistanceSum is the retired discrimination scoring: candidate and
// references interned as float rows, then every reference fully
// computed and accumulated in order.
func naiveDistanceSum(rs RefSet, f fingerprint.F) (sum float64, n int) {
	rows := [][][]float64{f.Rows()}
	for _, ref := range rs {
		rows = append(rows, ref.Rows())
	}
	words := floatera.Words(rows...)
	word := words[0]
	for _, rw := range words[1:] {
		ml := len(word)
		if len(rw) > ml {
			ml = len(rw)
		}
		if ml == 0 {
			continue
		}
		sum += float64(naiveDistance(word, rw)) / float64(ml)
	}
	return sum, len(rs)
}

func randWord(rng *rand.Rand, n, alphabet int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = rng.Intn(alphabet)
	}
	return w
}

// packed maps a symbol word to packet vectors: distinct symbols,
// distinct words.
func packed(w []int) fingerprint.F {
	f := make(fingerprint.F, len(w))
	for i, s := range w {
		f[i] = features.Vector(s)
	}
	return f
}

// TestDistanceMatchesNaive checks the full-band Distance against the
// retired full-matrix DP across random word shapes and alphabet sizes
// (small alphabets force matches and transpositions).
func TestDistanceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		la, lb := rng.Intn(40), rng.Intn(40)
		alpha := 1 + rng.Intn(6)
		a, b := randWord(rng, la, alpha), randWord(rng, lb, alpha)
		if got, want := Distance(packed(a), packed(b)), naiveDistance(a, b); got != want {
			t.Fatalf("Distance(%v, %v) = %d, naive %d", a, b, got, want)
		}
	}
}

// TestDistanceBoundedMatchesNaive checks the banded contract at every
// limit: exact when the true distance fits the bound, strictly above
// the bound otherwise.
func TestDistanceBoundedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 1500; trial++ {
		la, lb := rng.Intn(32), rng.Intn(32)
		alpha := 1 + rng.Intn(5)
		a, b := randWord(rng, la, alpha), randWord(rng, lb, alpha)
		want := naiveDistance(a, b)
		for limit := -1; limit <= la+lb+1; limit++ {
			got := DistanceBounded(packed(a), packed(b), limit)
			if want <= limit {
				if got != want {
					t.Fatalf("DistanceBounded(%v, %v, %d) = %d, naive %d", a, b, limit, got, want)
				}
			} else if got <= limit {
				t.Fatalf("DistanceBounded(%v, %v, %d) = %d claims within bound, naive %d", a, b, limit, got, want)
			}
		}
	}
}

// TestDistanceSumBoundedContract checks discrimination scoring against
// the retired implementation: un-pruned sums bit-identical, pruned
// candidates only when the exact sum indeed reaches the limit.
func TestDistanceSumBoundedContract(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		nRefs := 1 + rng.Intn(5)
		refs := make([]fingerprint.F, nRefs)
		for i := range refs {
			refs[i] = mkF(1+rng.Intn(30), rng.Intn(7))
		}
		rs := RefSet(refs)
		cand := mkF(1+rng.Intn(30), rng.Intn(9))
		exact, exactN := naiveDistanceSum(rs, cand)

		if got, n := rs.DistanceSum(cand); got != exact || n != exactN {
			t.Fatalf("DistanceSum = (%v, %d), naive (%v, %d)", got, n, exact, exactN)
		}

		limits := []float64{
			math.Inf(1), exact, math.Nextafter(exact, math.Inf(1)),
			math.Nextafter(exact, -1), exact / 2, exact * 2,
			0, float64(rng.Intn(4)) * rng.Float64(),
		}
		for _, limit := range limits {
			sum, _, pruned := rs.DistanceSumBounded(cand, limit)
			if pruned {
				if exact < limit {
					t.Fatalf("limit %v: pruned although exact sum %v < limit", limit, exact)
				}
			} else {
				if sum != exact {
					t.Fatalf("limit %v: completed sum %v, naive %v (must be bit-identical)", limit, sum, exact)
				}
			}
		}
	}
}

func TestDistanceBoundedZeroAlloc(t *testing.T) {
	a, b := benchWord(64, 1), benchWord(64, 3)
	testutil.AssertZeroAllocs(t, "Distance", func() { Distance(a, b) })
	testutil.AssertZeroAllocs(t, "DistanceBounded", func() { DistanceBounded(a, b, 8) })
}

func TestDistanceSumZeroAlloc(t *testing.T) {
	rs := RefSet([]fingerprint.F{mkF(40, 5), mkF(35, 9), mkF(40, 2), mkF(12, 7), mkF(28, 3)})
	cand := mkF(40, 1)
	testutil.AssertZeroAllocs(t, "DistanceSum", func() { rs.DistanceSum(cand) })
	testutil.AssertZeroAllocs(t, "DistanceSumBounded", func() { rs.DistanceSumBounded(cand, 1.0) })
}

// TestRefSetMatchesFloatEraCatalog scores fingerprints of
// devices.GenerateDataset(200, 7) against every type's first five
// captures as references: each distance sum must be bit-identical to
// the float-era scoring, and bounded scoring at the exact sum must
// prune exactly as the float-era sum dictates.
func TestRefSetMatchesFloatEraCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog oracle")
	}
	ds := devices.GenerateDataset(200, 7)
	types := make([]string, 0, len(ds))
	for ty := range ds {
		types = append(types, ty)
	}
	sort.Strings(types)
	refsets := make([]RefSet, len(types))
	for i, ty := range types {
		for _, fp := range ds[ty][:5] {
			refsets[i] = append(refsets[i], fp.F)
		}
	}
	sums := 0
	for _, ty := range types {
		for c := 5; c < len(ds[ty]); c += 25 {
			cand := ds[ty][c].F
			for _, rs := range refsets {
				want, wantN := naiveDistanceSum(rs, cand)
				got, n := rs.DistanceSum(cand)
				if got != want || n != wantN {
					t.Fatalf("%s capture %d: DistanceSum = (%v, %d), float-era (%v, %d)", ty, c, got, n, want, wantN)
				}
				if _, _, pruned := rs.DistanceSumBounded(cand, want); !pruned && want > 0 {
					t.Fatalf("%s capture %d: not pruned at its own sum %v", ty, c, want)
				}
				if sum, _, pruned := rs.DistanceSumBounded(cand, math.Nextafter(want, math.Inf(1))); pruned || sum != want {
					t.Fatalf("%s capture %d: bounded just above the sum = (%v, pruned=%v), float-era %v", ty, c, sum, pruned, want)
				}
				sums++
			}
		}
	}
	t.Logf("%d distance sums identical", sums)
}
