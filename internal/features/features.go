// Package features implements the 23-feature packet representation of
// Table I in the IoT Sentinel paper. None of the features depend on
// packet payload content, so extraction works on encrypted traffic.
//
// Feature layout (fixed order, used across the whole pipeline):
//
//	 0 ARP                 link-layer protocol (binary)
//	 1 LLC                 link-layer protocol (binary)
//	 2 IP                  network-layer protocol (binary)
//	 3 ICMP                network-layer protocol (binary)
//	 4 ICMPv6              network-layer protocol (binary)
//	 5 EAPoL               network-layer protocol (binary)
//	 6 TCP                 transport-layer protocol (binary)
//	 7 UDP                 transport-layer protocol (binary)
//	 8 HTTP                application-layer protocol (binary)
//	 9 HTTPS               application-layer protocol (binary)
//	10 DHCP                application-layer protocol (binary)
//	11 BOOTP               application-layer protocol (binary)
//	12 SSDP                application-layer protocol (binary)
//	13 DNS                 application-layer protocol (binary)
//	14 MDNS                application-layer protocol (binary)
//	15 NTP                 application-layer protocol (binary)
//	16 Padding             IPv4 header option (binary)
//	17 RouterAlert         IPv4 header option (binary)
//	18 Size                frame size in bytes (integer)
//	19 RawData             payload present (binary)
//	20 DstIPCounter        per-device destination-IP counter (integer)
//	21 SrcPortClass        port class 0..3 (integer)
//	22 DstPortClass        port class 0..3 (integer)
//
// Every feature is a flag or a small non-negative integer, so a Vector
// packs all 23 into one uint64, each field in Table I order holding its
// own value (the zero word is the all-zero vector):
//
//	bits   width  features
//	 0-17    1    ARP … RouterAlert (features 0-17), one flag each
//	18-36   19    Size: up to 2^19-1, covering pcap.MaxSnapLen (2^18)
//	37       1    RawData
//	38-59   22    DstIPCounter, saturating at 2^22-1
//	60-61    2    SrcPortClass
//	62-63    2    DstPortClass
//
// Two packets are the same edit-distance character exactly when their
// words are equal.
package features

import (
	"fmt"
	"math"
	"net/netip"
	"slices"

	"iotsentinel/internal/packet"
)

// Count is the number of features per packet (Table I).
const Count = 23

// Feature indices, in the order of Table I.
const (
	FeatARP = iota
	FeatLLC
	FeatIP
	FeatICMP
	FeatICMPv6
	FeatEAPoL
	FeatTCP
	FeatUDP
	FeatHTTP
	FeatHTTPS
	FeatDHCP
	FeatBOOTP
	FeatSSDP
	FeatDNS
	FeatMDNS
	FeatNTP
	FeatPadding
	FeatRouterAlert
	FeatSize
	FeatRawData
	FeatDstIPCounter
	FeatSrcPortClass
	FeatDstPortClass
)

// Names lists the feature names in vector order.
var Names = [Count]string{
	"arp", "llc",
	"ip", "icmp", "icmp6", "eapol",
	"tcp", "udp",
	"http", "https", "dhcp", "bootp", "ssdp", "dns", "mdns", "ntp",
	"ip_opt_padding", "ip_opt_ralert",
	"size", "raw_data",
	"dst_ip_counter",
	"src_port_class", "dst_port_class",
}

// Vector is the 23-feature representation of one packet, packed into
// one word (see the package doc for the bit layout).
type Vector uint64

// The field layout: Table I order, back to back from bit 0, filling
// the word. Features 0-17 (the flags below Size) take one bit each.
const (
	sizeShift     = FeatSize
	sizeBits      = 19
	rawDataShift  = sizeShift + sizeBits
	counterShift  = rawDataShift + 1
	counterBits   = 22
	classBits     = 2
	srcClassShift = counterShift + counterBits
	dstClassShift = srcClassShift + classBits
)

// fieldWidth is each feature's width in bits; fieldShift its offset.
var fieldWidth = [Count]uint{
	1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
	sizeBits, 1, counterBits, classBits, classBits,
}

var fieldShift = func() (s [Count]uint) {
	for i := 1; i < Count; i++ {
		s[i] = s[i-1] + fieldWidth[i-1]
	}
	return s
}()

// Max returns the largest value feature i can hold.
func Max(i int) uint64 { return 1<<fieldWidth[i] - 1 }

// Field returns the value of feature i.
func (v Vector) Field(i int) uint64 { return uint64(v) >> fieldShift[i] & Max(i) }

// With returns v with feature i set to x, saturating at Max(i).
func (v Vector) With(i int, x uint64) Vector {
	x = min(x, Max(i))
	return v&^Vector(Max(i)<<fieldShift[i]) | Vector(x<<fieldShift[i])
}

// Equal reports whether two vectors agree on every feature. This is the
// "character equality" used by the edit-distance discrimination step.
func (v Vector) Equal(o Vector) bool { return v == o }

// bitFloats maps a flag bit to its float without an int-to-float
// conversion; conversions dominate the cost of expanding F′.
var bitFloats = [2]float64{0, 1}

// AppendFloats appends the 23 feature values of v, in Table I order, to
// dst: the float row a forest reads and the JSON formats carry.
func (v Vector) AppendFloats(dst []float64) []float64 {
	n := len(dst)
	dst = slices.Grow(dst, Count)[:n+Count]
	row := (*[Count]float64)(dst[n:])
	u := uint64(v)
	for i := 0; i < sizeShift; i++ {
		row[i] = bitFloats[u>>i&1]
	}
	row[FeatSize] = float64(int64(u >> sizeShift & (1<<sizeBits - 1)))
	row[FeatRawData] = bitFloats[u>>rawDataShift&1]
	row[FeatDstIPCounter] = float64(int64(u >> counterShift & (1<<counterBits - 1)))
	row[FeatSrcPortClass] = float64(int64(u >> srcClassShift & (1<<classBits - 1)))
	row[FeatDstPortClass] = float64(int64(u >> dstClassShift))
	return dst
}

// FromFloats packs a 23-value float row into a Vector. Every value must
// be an integer in [0, Max(i)]; the error names the first feature that
// is not.
func FromFloats(row []float64) (Vector, error) {
	if len(row) != Count {
		return 0, fmt.Errorf("%d features, want %d", len(row), Count)
	}
	var v Vector
	for i, x := range row {
		if !(x >= 0 && x <= float64(Max(i)) && x == math.Trunc(x)) {
			return 0, fmt.Errorf("feature %d (%s) = %v, want an integer in [0, %d]", i, Names[i], x, Max(i))
		}
		v = v.With(i, uint64(x))
	}
	return v, nil
}

// PortClass maps a transport port to the paper's four port classes:
// 0 = no port, 1 = well-known [0,1023], 2 = registered [1024,49151],
// 3 = dynamic [49152,65535].
func PortClass(port uint16, hasPort bool) int {
	switch {
	case !hasPort:
		return 0
	case port <= 1023:
		return 1
	case port <= 49151:
		return 2
	default:
		return 3
	}
}

// Extractor converts packets to feature vectors while tracking the
// per-device destination-IP counter state: the first distinct
// destination address observed maps to 1, the second to 2, and so on.
// An Extractor is intended for the packets of a single device's setup
// phase; it is not safe for concurrent use.
type Extractor struct {
	dstSeen map[netip.Addr]int
}

// NewExtractor returns an Extractor with empty destination-IP state.
func NewExtractor() *Extractor {
	return &Extractor{dstSeen: make(map[netip.Addr]int)}
}

// Reset clears the destination-IP counter state.
func (e *Extractor) Reset() { e.dstSeen = make(map[netip.Addr]int) }

// Extract maps one packet to its feature vector, updating counter state.
func (e *Extractor) Extract(p *packet.Packet) Vector {
	return vectorOf(p, e.dstCounter(p))
}

// vectorOf packs the features of p, given its destination-IP counter.
func vectorOf(p *packet.Packet, dstCounter int) Vector {
	hasPorts := p.Transport == packet.TransportTCP || p.Transport == packet.TransportUDP
	flags := [Count]bool{
		FeatARP:    p.Link == packet.LinkARP,
		FeatLLC:    p.Link == packet.LinkLLC,
		FeatIP:     p.HasIP(),
		FeatICMP:   p.Network == packet.NetICMP,
		FeatICMPv6: p.Network == packet.NetICMPv6,
		FeatEAPoL:  p.Network == packet.NetEAPoL,
		FeatTCP:    p.Transport == packet.TransportTCP,
		FeatUDP:    p.Transport == packet.TransportUDP,
		FeatHTTP:   p.App == packet.AppHTTP,
		FeatHTTPS:  p.App == packet.AppHTTPS,
		// DHCP rides on BOOTP, so a DHCP packet sets both protocol
		// bits; plain BOOTP sets only the BOOTP bit.
		FeatDHCP:        p.App == packet.AppDHCP,
		FeatBOOTP:       p.App == packet.AppDHCP || p.App == packet.AppBOOTP,
		FeatSSDP:        p.App == packet.AppSSDP,
		FeatDNS:         p.App == packet.AppDNS,
		FeatMDNS:        p.App == packet.AppMDNS,
		FeatNTP:         p.App == packet.AppNTP,
		FeatPadding:     p.IPOpts.Padding,
		FeatRouterAlert: p.IPOpts.RouterAlert,
		FeatRawData:     p.HasRawData(),
	}
	var v Vector
	for i, b := range flags {
		if b {
			v = v.With(i, 1)
		}
	}
	return v.With(FeatSize, uint64(max(p.Size, 0))).
		With(FeatDstIPCounter, uint64(dstCounter)).
		With(FeatSrcPortClass, uint64(PortClass(p.SrcPort, hasPorts))).
		With(FeatDstPortClass, uint64(PortClass(p.DstPort, hasPorts)))
}

// ExtractAll maps a packet sequence to its feature-vector sequence using
// fresh counter state.
func ExtractAll(pkts []*packet.Packet) []Vector {
	e := NewExtractor()
	out := make([]Vector, len(pkts))
	for i, p := range pkts {
		out[i] = e.Extract(p)
	}
	return out
}

// dstCounter returns the destination-IP counter for p: 0 when the packet
// has no IP destination, otherwise the 1-based index of the destination
// address in order of first appearance.
func (e *Extractor) dstCounter(p *packet.Packet) int {
	if !p.HasIP() || !p.DstIP.IsValid() {
		return 0
	}
	if c, ok := e.dstSeen[p.DstIP]; ok {
		return c
	}
	c := len(e.dstSeen) + 1
	e.dstSeen[p.DstIP] = c
	return c
}
