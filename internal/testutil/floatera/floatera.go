// Package floatera keeps the float-era edit-distance pipeline as a
// differential oracle for the packed one: packet vectors as 23-float
// rows, interned into int symbols, compared by a full-matrix DP. It
// must only be imported from _test.go files.
package floatera

import "iotsentinel/internal/features"

// Words interns fingerprints given as float rows (one per packet) into
// symbol words: each distinct row gets a dense int symbol on first
// sight, shared across all inputs.
func Words(fs ...[][]float64) [][]int {
	symbols := make(map[[features.Count]float64]int)
	out := make([][]int, len(fs))
	for i, rows := range fs {
		out[i] = make([]int, len(rows))
		for j, r := range rows {
			row := [features.Count]float64(r)
			s, ok := symbols[row]
			if !ok {
				s = len(symbols)
				symbols[row] = s
			}
			out[i][j] = s
		}
	}
	return out
}

// Distance is the full-matrix restricted Damerau-Levenshtein
// (optimal string alignment) distance between two symbol words: no
// band, no early exit.
func Distance(a, b []int) int {
	d := make([][]int, len(a)+1)
	for i := range d {
		d[i] = make([]int, len(b)+1)
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d[i][j] = min(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				d[i][j] = min(d[i][j], d[i-2][j-2]+1)
			}
		}
	}
	return d[len(a)][len(b)]
}

// Normalized is Distance divided by the longer word's
// length; two empty words are at distance 0.
func Normalized(a, b []int) float64 {
	n := max(len(a), len(b))
	if n == 0 {
		return 0
	}
	return float64(Distance(a, b)) / float64(n)
}
