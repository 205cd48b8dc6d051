package fingerprint

import (
	"net/netip"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"iotsentinel/internal/features"
	"iotsentinel/internal/packet"
)

var (
	mac1 = packet.MAC{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}
	mac2 = packet.MAC{0x02, 0x66, 0x77, 0x88, 0x99, 0xaa}
	ip1  = netip.AddrFrom4([4]byte{192, 168, 1, 10})
	gw   = netip.AddrFrom4([4]byte{192, 168, 1, 1})
)

func vec(size uint64) features.Vector {
	return features.Vector(0).With(features.FeatSize, size)
}

func TestDedupeConsecutive(t *testing.T) {
	tests := []struct {
		name string
		give []features.Vector
		want int
	}{
		{name: "empty", give: nil, want: 0},
		{name: "single", give: []features.Vector{vec(1)}, want: 1},
		{name: "run-collapsed", give: []features.Vector{vec(1), vec(1), vec(1)}, want: 1},
		{name: "alternating-kept", give: []features.Vector{vec(1), vec(2), vec(1), vec(2)}, want: 4},
		{name: "mixed", give: []features.Vector{vec(1), vec(1), vec(2), vec(2), vec(1)}, want: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := len(FromVectors(tt.give).F); got != tt.want {
				t.Errorf("len(F) = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestFPrimePadding(t *testing.T) {
	fp := FromVectors([]features.Vector{vec(10), vec(20)})
	if fp.UniqueCount != 2 {
		t.Fatalf("UniqueCount = %d, want 2", fp.UniqueCount)
	}
	prime := fp.FPrime.AppendFloats(nil)
	if len(prime) != FPrimeLen {
		t.Fatalf("F′ expands to %d floats, want %d", len(prime), FPrimeLen)
	}
	if prime[features.FeatSize] != 10 {
		t.Errorf("slot 0 size = %v, want 10", prime[features.FeatSize])
	}
	if prime[features.Count+features.FeatSize] != 20 {
		t.Errorf("slot 1 size = %v, want 20", prime[features.Count+features.FeatSize])
	}
	// Slots 2..11 are zero padding.
	for i := 2 * features.Count; i < FPrimeLen; i++ {
		if prime[i] != 0 {
			t.Fatalf("padding at %d = %v, want 0", i, prime[i])
		}
	}
}

func TestFPrimeGlobalUniqueness(t *testing.T) {
	// vec(1) appears non-consecutively: F keeps both occurrences but F'
	// must only use the first.
	fp := FromVectors([]features.Vector{vec(1), vec(2), vec(1), vec(3)})
	if len(fp.F) != 4 {
		t.Errorf("len(F) = %d, want 4", len(fp.F))
	}
	if fp.UniqueCount != 3 {
		t.Errorf("UniqueCount = %d, want 3", fp.UniqueCount)
	}
	wantSizes := []float64{1, 2, 3}
	prime := fp.FPrime.AppendFloats(nil)
	for i, w := range wantSizes {
		if got := prime[i*features.Count+features.FeatSize]; got != w {
			t.Errorf("slot %d size = %v, want %v", i, got, w)
		}
	}
}

func TestFPrimeCapsAtTwelve(t *testing.T) {
	vs := make([]features.Vector, 0, 20)
	for i := 0; i < 20; i++ {
		vs = append(vs, vec(uint64(i+1)))
	}
	fp := FromVectors(vs)
	if fp.UniqueCount != UniquePackets {
		t.Errorf("UniqueCount = %d, want %d", fp.UniqueCount, UniquePackets)
	}
	if got := fp.FPrime[UniquePackets-1].Field(features.FeatSize); got != 12 {
		t.Errorf("last slot size = %v, want 12", got)
	}
}

func TestFromPackets(t *testing.T) {
	pkts := []*packet.Packet{
		packet.NewDHCPDiscover(mac1, 1, "d"),
		packet.NewDHCPDiscover(mac1, 1, "d"), // consecutive duplicate
		packet.NewARP(mac1, ip1, gw),
	}
	fp := FromPackets(pkts)
	if len(fp.F) != 2 {
		t.Errorf("len(F) = %d, want 2 after dedupe", len(fp.F))
	}
}

func TestSetupCaptureIdleGap(t *testing.T) {
	c := NewSetupCapture(5*time.Second, 100)
	base := time.Unix(1000, 0)
	p := packet.NewARP(mac1, ip1, gw)
	for i := 0; i < 5; i++ {
		if done := c.Observe(base.Add(time.Duration(i)*time.Second), p); done {
			t.Fatalf("premature completion at packet %d", i)
		}
	}
	// A packet after a long gap ends the setup phase and is excluded.
	if done := c.Observe(base.Add(time.Hour), p); !done {
		t.Fatal("idle gap should complete the capture")
	}
	if c.Len() != 5 {
		t.Errorf("Len = %d, want 5", c.Len())
	}
	if !c.Done() {
		t.Error("Done() = false")
	}
	// Further packets are ignored.
	c.Observe(base.Add(2*time.Hour), p)
	if c.Len() != 5 {
		t.Errorf("Len after done = %d, want 5", c.Len())
	}
}

func TestSetupCaptureMaxPackets(t *testing.T) {
	c := NewSetupCapture(time.Minute, 3)
	base := time.Unix(1000, 0)
	p := packet.NewARP(mac1, ip1, gw)
	for i := 0; i < 3; i++ {
		c.Observe(base.Add(time.Duration(i)*time.Millisecond), p)
	}
	if !c.Done() {
		t.Error("capture should complete at MaxPackets")
	}
	fp := c.Fingerprint()
	if len(fp.F) != 1 { // identical packets collapse
		t.Errorf("len(F) = %d, want 1", len(fp.F))
	}
}

func TestSetupCaptureDefaults(t *testing.T) {
	c := NewSetupCapture(0, 0)
	if c.IdleGap != 10*time.Second || c.MaxPackets != 300 {
		t.Errorf("defaults = %v/%d", c.IdleGap, c.MaxPackets)
	}
}

func TestQuickFPrimeInvariants(t *testing.T) {
	// Properties: UniqueCount <= 12; UniqueCount <= len(F);
	// F has no consecutive duplicates.
	f := func(sizes []uint16) bool {
		vs := make([]features.Vector, len(sizes))
		for i, s := range sizes {
			vs[i] = vec(uint64(s%7) + 1) // few distinct values force dupes
		}
		fp := FromVectors(vs)
		if fp.UniqueCount > UniquePackets || fp.UniqueCount > len(fp.F) {
			return false
		}
		for i := 1; i < len(fp.F); i++ {
			if fp.F[i].Equal(fp.F[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowsRoundTrip(t *testing.T) {
	f := FromVectors([]features.Vector{vec(60), vec(90).With(features.FeatDstIPCounter, 3), vec(1514)}).F
	rows := f.Rows()
	if len(rows) != len(f) || len(rows[0]) != features.Count || rows[2][features.FeatSize] != 1514 {
		t.Fatalf("Rows = %v", rows)
	}
	got, err := FromRows(rows)
	if err != nil || !slices.Equal(got.F, f) {
		t.Fatalf("FromRows(Rows(f)).F = %v, %v; want %v", got.F, err, f)
	}
	rows[1][features.FeatTCP] = 0.5
	if _, err := FromRows(rows); err == nil || !strings.Contains(err.Error(), "row 1") || !strings.Contains(err.Error(), "tcp") {
		t.Fatalf("FromRows error %v does not name row 1 and feature tcp", err)
	}
}

func TestFingerprintSize(t *testing.T) {
	if n := unsafe.Sizeof(Fingerprint{}); n > 128 {
		t.Fatalf("Fingerprint is %d bytes, want <= 128", n)
	}
}
