package features

import (
	"math"
	"math/rand"
	"net/netip"
	"testing"

	"iotsentinel/internal/packet"
	"iotsentinel/internal/pcap"
)

// floatVector is the float-era representation of one packet: 23
// float64s in Table I order.
type floatVector [Count]float64

// floatExtractor is the float-era extractor, kept verbatim as the
// oracle for the packed word: AppendFloats of a packed vector must
// reproduce its rows exactly (up to the DstIPCounter saturation the
// word introduces past Max(FeatDstIPCounter)).
type floatExtractor struct {
	dstSeen map[netip.Addr]int
}

func newFloatExtractor() *floatExtractor {
	return &floatExtractor{dstSeen: make(map[netip.Addr]int)}
}

func (e *floatExtractor) Extract(p *packet.Packet) floatVector {
	c := 0
	if p.HasIP() && p.DstIP.IsValid() {
		var ok bool
		if c, ok = e.dstSeen[p.DstIP]; !ok {
			c = len(e.dstSeen) + 1
			e.dstSeen[p.DstIP] = c
		}
	}
	return floatVectorOf(p, c)
}

func floatVectorOf(p *packet.Packet, dstCounter int) floatVector {
	var v floatVector
	setBool := func(idx int, b bool) {
		if b {
			v[idx] = 1
		}
	}
	setBool(FeatARP, p.Link == packet.LinkARP)
	setBool(FeatLLC, p.Link == packet.LinkLLC)
	setBool(FeatIP, p.HasIP())
	setBool(FeatICMP, p.Network == packet.NetICMP)
	setBool(FeatICMPv6, p.Network == packet.NetICMPv6)
	setBool(FeatEAPoL, p.Network == packet.NetEAPoL)
	setBool(FeatTCP, p.Transport == packet.TransportTCP)
	setBool(FeatUDP, p.Transport == packet.TransportUDP)
	setBool(FeatHTTP, p.App == packet.AppHTTP)
	setBool(FeatHTTPS, p.App == packet.AppHTTPS)
	setBool(FeatDHCP, p.App == packet.AppDHCP)
	setBool(FeatBOOTP, p.App == packet.AppDHCP || p.App == packet.AppBOOTP)
	setBool(FeatSSDP, p.App == packet.AppSSDP)
	setBool(FeatDNS, p.App == packet.AppDNS)
	setBool(FeatMDNS, p.App == packet.AppMDNS)
	setBool(FeatNTP, p.App == packet.AppNTP)
	setBool(FeatPadding, p.IPOpts.Padding)
	setBool(FeatRouterAlert, p.IPOpts.RouterAlert)
	v[FeatSize] = float64(p.Size)
	setBool(FeatRawData, p.HasRawData())
	v[FeatDstIPCounter] = float64(dstCounter)
	hasPorts := p.Transport == packet.TransportTCP || p.Transport == packet.TransportUDP
	v[FeatSrcPortClass] = float64(PortClass(p.SrcPort, hasPorts))
	v[FeatDstPortClass] = float64(PortClass(p.DstPort, hasPorts))
	return v
}

func floatsOf(v Vector) (out floatVector) {
	copy(out[:], v.AppendFloats(nil))
	return out
}

// randPacket builds a packet with every field the extractor reads drawn
// from rng: protocol enums (including out-of-range values), IP options,
// ports, payload presence, a destination from a small address pool, and
// a Size anywhere up to pcap.MaxSnapLen.
func randPacket(rng *rand.Rand) *packet.Packet {
	p := &packet.Packet{
		Link:      packet.LinkProto(rng.Intn(5)),
		Network:   packet.NetworkProto(rng.Intn(7)),
		Transport: packet.TransportProto(rng.Intn(4)),
		App:       packet.AppProto(rng.Intn(10)),
		IPOpts:    packet.IPv4Options{Padding: rng.Intn(2) == 0, RouterAlert: rng.Intn(2) == 0},
		SrcPort:   uint16(rng.Intn(1 << 16)),
		DstPort:   uint16(rng.Intn(1 << 16)),
		Size:      rng.Intn(pcap.MaxSnapLen + 1),
	}
	if rng.Intn(2) == 0 {
		p.Payload = []byte{1}
	}
	if rng.Intn(8) != 0 {
		p.DstIP = netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(16))})
	}
	return p
}

// FuzzVectorPack holds the packed extractor to the float-era oracle:
// for random packet sequences the per-packet AppendFloats rows must
// equal the float rows, and for a destination counter anywhere up to
// 2^32 the packed DstIPCounter must equal the oracle's value below
// Max(FeatDstIPCounter) and saturate at it above.
func FuzzVectorPack(f *testing.F) {
	f.Add(int64(1), uint32(0), 1)
	f.Add(int64(2), uint32(1<<22-1), 8)
	f.Add(int64(3), uint32(1<<22), 16)
	f.Add(int64(4), uint32(1<<22+12345), 3)
	f.Add(int64(5), uint32(math.MaxUint32), 40)
	f.Fuzz(func(t *testing.T, seed int64, counter uint32, n int) {
		rng := rand.New(rand.NewSource(seed))
		if n < 0 {
			n = -n
		}
		n %= 64
		ext, oracle := NewExtractor(), newFloatExtractor()
		for i := 0; i < n; i++ {
			p := randPacket(rng)
			got, want := floatsOf(ext.Extract(p)), oracle.Extract(p)
			if got != want {
				t.Fatalf("packet %d (%+v): packed %v, float %v", i, p, got, want)
			}
		}

		p := randPacket(rng)
		got, want := floatsOf(vectorOf(p, int(counter))), floatVectorOf(p, int(counter))
		maxCounter := float64(Max(FeatDstIPCounter))
		if uint64(counter) > Max(FeatDstIPCounter) {
			if got[FeatDstIPCounter] != maxCounter {
				t.Fatalf("counter %d: packed %v, want saturation at %v", counter, got[FeatDstIPCounter], maxCounter)
			}
			want[FeatDstIPCounter] = maxCounter
		}
		if got != want {
			t.Fatalf("counter %d (%+v): packed %v, float %v", counter, p, got, want)
		}
	})
}

// FloatExtractAll is ExtractAll under the float-era oracle, exported
// to the external test package for the full-catalog comparison.
func FloatExtractAll(pkts []*packet.Packet) [][Count]float64 {
	e := newFloatExtractor()
	out := make([][Count]float64, len(pkts))
	for i, p := range pkts {
		out[i] = e.Extract(p)
	}
	return out
}

func TestVectorLayoutFillsWord(t *testing.T) {
	var all Vector
	for i := 0; i < Count; i++ {
		all = all.With(i, Max(i))
	}
	if all != math.MaxUint64 {
		t.Fatalf("fields cover %#x, want every bit", uint64(all))
	}
	if Max(FeatSize) < pcap.MaxSnapLen {
		t.Fatalf("Size holds %d, below pcap.MaxSnapLen %d", Max(FeatSize), pcap.MaxSnapLen)
	}
	var zero Vector
	if floatsOf(zero) != (floatVector{}) {
		t.Fatal("the zero word must expand to the all-zero vector")
	}
}

func TestFromFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		v := vectorOf(randPacket(rng), rng.Intn(1<<22))
		got, err := FromFloats(v.AppendFloats(nil))
		if err != nil || got != v {
			t.Fatalf("FromFloats(AppendFloats(%#x)) = %#x, %v", uint64(v), uint64(got), err)
		}
	}
	bad := map[string]func(row []float64){
		"fraction":     func(r []float64) { r[FeatSize] = 0.5 },
		"negative":     func(r []float64) { r[FeatTCP] = -3 },
		"huge":         func(r []float64) { r[FeatDstIPCounter] = 1e300 },
		"nan":          func(r []float64) { r[FeatSrcPortClass] = math.NaN() },
		"inf":          func(r []float64) { r[FeatSize] = math.Inf(1) },
		"flag-over":    func(r []float64) { r[FeatUDP] = 2 },
		"class-over":   func(r []float64) { r[FeatDstPortClass] = 4 },
		"counter-over": func(r []float64) { r[FeatDstIPCounter] = 1 << 22 },
	}
	for name, mutate := range bad {
		row := make([]float64, Count)
		mutate(row)
		if _, err := FromFloats(row); err == nil {
			t.Errorf("%s: FromFloats accepted %v", name, row)
		}
	}
	if _, err := FromFloats(make([]float64, Count-1)); err == nil {
		t.Error("FromFloats accepted a short row")
	}
}
