// Package fingerprint builds the two device fingerprints of Sect. IV-A:
//
//   - F: the variable-length sequence of 23-feature packet vectors for
//     the setup-phase packets of one device, with consecutive identical
//     vectors discarded.
//   - F′ ("FPrime"): the first 12 *unique* packet vectors of F,
//     zero-padded when fewer than 12 unique vectors exist. Forests read
//     it as a 276-dimensional float vector (FPrime.AppendFloats).
//
// Packet vectors are packed words (features.Vector). The JSON formats
// carry F as one 23-float row per packet; Rows and FromRows are the one
// codec for them.
//
// It also implements the setup-phase end detection the paper describes:
// the setup phase ends when the packet rate drops below a fraction of
// its peak.
package fingerprint

import (
	"fmt"
	"slices"
	"time"

	"iotsentinel/internal/features"
	"iotsentinel/internal/packet"
)

// UniquePackets is the number of unique packet vectors concatenated into
// the fixed-size fingerprint F′ (Sect. IV-A: "12 packets was a good
// trade-off").
const UniquePackets = 12

// FPrimeLen is the dimensionality of F′: 12 packets × 23 features.
const FPrimeLen = UniquePackets * features.Count

// F is the variable-length fingerprint: an ordered sequence of packet
// feature vectors with consecutive duplicates removed. Each element is
// one "character" for the edit-distance discrimination step.
type F []features.Vector

// FPrime is the fixed-size fingerprint used for classification: the
// first UniquePackets unique vectors of F, zero words padding the
// tail. Forests read its FPrimeLen-float expansion (AppendFloats).
type FPrime [UniquePackets]features.Vector

// AppendFloats appends the FPrimeLen-float expansion of p to dst: the
// 23 features of each slot in order, a zero slot expanding to zeros.
func (p *FPrime) AppendFloats(dst []float64) []float64 {
	for _, v := range p {
		dst = v.AppendFloats(dst)
	}
	return dst
}

// Fingerprint bundles both representations for one device observation.
type Fingerprint struct {
	F      F
	FPrime FPrime
	// UniqueCount is the number of unique packet vectors that filled
	// F′ before padding (min(unique(F), 12)).
	UniqueCount int
}

// FromVectors builds a Fingerprint from an ordered packet-vector
// sequence (one device's setup traffic).
func FromVectors(vs []features.Vector) Fingerprint {
	f := dedupeConsecutive(vs)
	fp := Fingerprint{F: f}
	for _, v := range f {
		if fp.UniqueCount == UniquePackets {
			break
		}
		if !slices.Contains(fp.FPrime[:fp.UniqueCount], v) {
			fp.FPrime[fp.UniqueCount] = v
			fp.UniqueCount++
		}
	}
	return fp
}

// FromPackets extracts features (with fresh destination-IP counter
// state) and builds the Fingerprint.
func FromPackets(pkts []*packet.Packet) Fingerprint {
	return FromVectors(features.ExtractAll(pkts))
}

// dedupeConsecutive drops packets identical (in feature space) to their
// immediate predecessor, per Eq. (1)'s side condition.
func dedupeConsecutive(vs []features.Vector) F {
	var out F
	for i, v := range vs {
		if i > 0 && v.Equal(vs[i-1]) {
			continue
		}
		out = append(out, v)
	}
	return out
}

// Rows expands f into one float row per packet: the form F takes in
// every JSON format (model files, journals, snapshots, the HTTP API).
func (f F) Rows() [][]float64 {
	flat := make([]float64, 0, len(f)*features.Count)
	rows := make([][]float64, len(f))
	for i, v := range f {
		flat = v.AppendFloats(flat)
		rows[i] = flat[i*features.Count : len(flat) : len(flat)]
	}
	return rows
}

// FromRows is the inverse of Rows: it validates every row through
// features.FromFloats (the error names the row and the feature) and
// builds the Fingerprint, re-deriving F′ from F.
func FromRows(rows [][]float64) (Fingerprint, error) {
	vs := make([]features.Vector, len(rows))
	for i, row := range rows {
		v, err := features.FromFloats(row)
		if err != nil {
			return Fingerprint{}, fmt.Errorf("row %d: %w", i, err)
		}
		vs[i] = v
	}
	return FromVectors(vs), nil
}

// SetupCapture accumulates timestamped packets for one device and
// detects the end of its setup phase by a decrease in packet rate: once
// the device has been quiet for IdleGap (no packet), or MaxPackets have
// been collected, the capture is complete.
type SetupCapture struct {
	// IdleGap is the silence duration that ends the setup phase.
	IdleGap time.Duration
	// MaxPackets caps the capture length.
	MaxPackets int

	vecs     []features.Vector
	ext      *features.Extractor
	lastSeen time.Time
	done     bool
}

// NewSetupCapture returns a capture with the given idle gap and packet
// cap; non-positive arguments select the defaults (10 s, 300 packets).
func NewSetupCapture(idleGap time.Duration, maxPackets int) *SetupCapture {
	if idleGap <= 0 {
		idleGap = 10 * time.Second
	}
	if maxPackets <= 0 {
		maxPackets = 300
	}
	return &SetupCapture{
		IdleGap:    idleGap,
		MaxPackets: maxPackets,
		ext:        features.NewExtractor(),
	}
}

// Observe records one packet at time ts. It returns true once the setup
// phase is considered complete (rate decrease detected or cap reached);
// packets observed after completion are ignored.
func (c *SetupCapture) Observe(ts time.Time, p *packet.Packet) bool {
	if c.done {
		return true
	}
	if len(c.vecs) > 0 && ts.Sub(c.lastSeen) >= c.IdleGap {
		// The device went quiet: the setup phase ended at the previous
		// packet; this one belongs to steady-state operation.
		c.done = true
		return true
	}
	c.vecs = append(c.vecs, c.ext.Extract(p))
	c.lastSeen = ts
	if len(c.vecs) >= c.MaxPackets {
		c.done = true
	}
	return c.done
}

// Done reports whether the setup phase has been detected as complete.
func (c *SetupCapture) Done() bool { return c.done }

// Len returns the number of packets captured so far.
func (c *SetupCapture) Len() int { return len(c.vecs) }

// LastSeen returns the timestamp of the most recently observed packet
// (zero before the first packet). Sweepers use it to finalize captures
// of devices that went silent without a completion-triggering packet.
func (c *SetupCapture) LastSeen() time.Time { return c.lastSeen }

// Fingerprint finalizes the capture and returns the fingerprint built
// from the packets observed so far.
func (c *SetupCapture) Fingerprint() Fingerprint {
	return FromVectors(c.vecs)
}
