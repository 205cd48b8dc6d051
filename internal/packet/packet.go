// Package packet implements a from-scratch wire-format model for the
// protocols IoT Sentinel observes during device setup: Ethernet II,
// IEEE 802.2 LLC, ARP, IPv4 (including the Padding and Router Alert
// options), IPv6, ICMP, ICMPv6, EAPoL, TCP and UDP, plus recognition and
// message codecs for the application protocols of Table I (HTTP, HTTPS,
// DHCP, BOOTP, SSDP, DNS, MDNS, NTP).
//
// The package provides both a structured representation (Packet) and
// binary serialization to/from raw frames, so that fingerprint extraction
// operates on genuinely parsed wire data rather than on hand-built
// feature vectors.
package packet

import (
	"fmt"
	"net/netip"
)

// EtherType values used by the frames IoT Sentinel observes.
const (
	EtherTypeIPv4  uint16 = 0x0800
	EtherTypeARP   uint16 = 0x0806
	EtherTypeIPv6  uint16 = 0x86dd
	EtherTypeEAPoL uint16 = 0x888e
	// EtherTypeLLC is not a real EtherType: values <= 1500 in the
	// Ethernet type/length field denote an IEEE 802.3 length, with an
	// 802.2 LLC header following. We keep the sentinel for clarity.
	EtherTypeLLC uint16 = 0x0000
)

// IP protocol numbers.
const (
	IPProtoICMP   uint8 = 1
	IPProtoTCP    uint8 = 6
	IPProtoUDP    uint8 = 17
	IPProtoICMPv6 uint8 = 58
)

// Well-known ports used for application-protocol recognition.
const (
	PortHTTP      = 80
	PortHTTPS     = 443
	PortDHCPSrv   = 67
	PortDHCPCli   = 68
	PortDNS       = 53
	PortMDNS      = 5353
	PortSSDP      = 1900
	PortNTP       = 123
	PortHTTPAlt   = 8080
	PortHTTPSAlt  = 8443
	PortDHCPv6Cli = 546
	PortDHCPv6Srv = 547
)

// LinkProto identifies the link-layer protocol carried in a frame.
type LinkProto int

// Link-layer protocols distinguished by the fingerprint features.
const (
	LinkEthernet LinkProto = iota + 1
	LinkARP
	LinkLLC
)

// String returns a short protocol name.
func (p LinkProto) String() string {
	switch p {
	case LinkEthernet:
		return "ethernet"
	case LinkARP:
		return "arp"
	case LinkLLC:
		return "llc"
	default:
		return fmt.Sprintf("link(%d)", int(p))
	}
}

// NetworkProto identifies the network-layer protocol carried in a frame.
type NetworkProto int

// Network-layer protocols distinguished by the fingerprint features.
const (
	NetNone NetworkProto = iota
	NetIPv4
	NetIPv6
	NetICMP
	NetICMPv6
	NetEAPoL
)

// String returns a short protocol name.
func (p NetworkProto) String() string {
	switch p {
	case NetNone:
		return "none"
	case NetIPv4:
		return "ipv4"
	case NetIPv6:
		return "ipv6"
	case NetICMP:
		return "icmp"
	case NetICMPv6:
		return "icmpv6"
	case NetEAPoL:
		return "eapol"
	default:
		return fmt.Sprintf("net(%d)", int(p))
	}
}

// TransportProto identifies the transport-layer protocol.
type TransportProto int

// Transport-layer protocols distinguished by the fingerprint features.
const (
	TransportNone TransportProto = iota
	TransportTCP
	TransportUDP
)

// String returns a short protocol name.
func (p TransportProto) String() string {
	switch p {
	case TransportNone:
		return "none"
	case TransportTCP:
		return "tcp"
	case TransportUDP:
		return "udp"
	default:
		return fmt.Sprintf("transport(%d)", int(p))
	}
}

// AppProto identifies the recognized application protocol, if any.
type AppProto int

// Application protocols recognized per Table I of the paper.
const (
	AppNone AppProto = iota
	AppHTTP
	AppHTTPS
	AppDHCP
	AppBOOTP
	AppSSDP
	AppDNS
	AppMDNS
	AppNTP
)

// String returns a short protocol name.
func (p AppProto) String() string {
	switch p {
	case AppNone:
		return "none"
	case AppHTTP:
		return "http"
	case AppHTTPS:
		return "https"
	case AppDHCP:
		return "dhcp"
	case AppBOOTP:
		return "bootp"
	case AppSSDP:
		return "ssdp"
	case AppDNS:
		return "dns"
	case AppMDNS:
		return "mdns"
	case AppNTP:
		return "ntp"
	default:
		return fmt.Sprintf("app(%d)", int(p))
	}
}

// MAC is a 6-byte IEEE 802 hardware address.
type MAC [6]byte

// String formats the address as colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is ff:ff:ff:ff:ff:ff.
func (m MAC) IsBroadcast() bool {
	return m == MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
}

// IsMulticast reports whether the group bit of the address is set.
func (m MAC) IsMulticast() bool { return m[0]&0x01 == 1 }

// MACHash is 32-bit FNV-1a over the address bytes. It is the one
// device hash of the pipeline: the capture fanout picks a reader ring,
// the gateway a device-state shard and the switch a flow-table stripe
// by its low bits, so every stage sees one device's packets in one
// place and in arrival order.
func MACHash(m MAC) uint32 {
	h := uint32(2166136261)
	for _, b := range m {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// ParseMAC parses a colon- or dash-separated hardware address.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	if len(s) != 17 {
		return m, fmt.Errorf("parse mac %q: want 17 chars, got %d", s, len(s))
	}
	for i := 0; i < 6; i++ {
		hi, ok1 := fromHex(s[i*3])
		lo, ok2 := fromHex(s[i*3+1])
		if !ok1 || !ok2 {
			return m, fmt.Errorf("parse mac %q: bad hex at byte %d", s, i)
		}
		m[i] = hi<<4 | lo
		if i < 5 && s[i*3+2] != ':' && s[i*3+2] != '-' {
			return m, fmt.Errorf("parse mac %q: bad separator at byte %d", s, i)
		}
	}
	return m, nil
}

func fromHex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}

// IPv4Options captures the IPv4 header options the fingerprint observes.
type IPv4Options struct {
	Padding     bool // option type 0 (End of Option List used as padding)
	RouterAlert bool // option type 148 (RFC 2113)
}

// Packet is the structured representation of one captured frame after
// decoding. The zero value represents an empty (unparseable) frame.
type Packet struct {
	// Link layer.
	Link   LinkProto
	SrcMAC MAC
	DstMAC MAC

	// Network layer. DstIP is the zero Addr when the frame has no IP
	// header (ARP, LLC, EAPoL).
	Network NetworkProto
	SrcIP   netip.Addr
	DstIP   netip.Addr
	IPOpts  IPv4Options

	// Transport layer. Ports are zero when absent.
	Transport TransportProto
	SrcPort   uint16
	DstPort   uint16

	// Application layer.
	App AppProto

	// Size is the total frame length in bytes, and Payload holds the
	// raw application payload bytes (nil when the packet carries none).
	Size    int
	Payload []byte
}

// HasRawData reports whether the packet carries application payload.
func (p *Packet) HasRawData() bool { return len(p.Payload) > 0 }

// HasIP reports whether the packet carries an IP header.
func (p *Packet) HasIP() bool {
	return p.Network == NetIPv4 || p.Network == NetIPv6 ||
		p.Network == NetICMP || p.Network == NetICMPv6
}

// FlowKey identifies the bidirectional flow a packet belongs to, used by
// the SDN layer for per-flow rule lookup.
type FlowKey struct {
	SrcMAC    MAC
	DstMAC    MAC
	SrcIP     netip.Addr
	DstIP     netip.Addr
	Proto     TransportProto
	SrcPort   uint16
	DstPort   uint16
	Ethertype uint16
}

// Flow returns the packet's flow key.
func (p *Packet) Flow() FlowKey {
	var et uint16
	switch p.Network {
	case NetIPv4, NetICMP:
		et = EtherTypeIPv4
	case NetIPv6, NetICMPv6:
		et = EtherTypeIPv6
	case NetEAPoL:
		et = EtherTypeEAPoL
	default:
		if p.Link == LinkARP {
			et = EtherTypeARP
		}
	}
	return FlowKey{
		SrcMAC:    p.SrcMAC,
		DstMAC:    p.DstMAC,
		SrcIP:     p.SrcIP,
		DstIP:     p.DstIP,
		Proto:     p.Transport,
		SrcPort:   p.SrcPort,
		DstPort:   p.DstPort,
		Ethertype: et,
	}
}

// classifyApp recognizes the application protocol from transport ports,
// matching the port-based recognition tcpdump-style tooling applies.
func classifyApp(transport TransportProto, srcPort, dstPort uint16) AppProto {
	if transport == TransportNone {
		return AppNone
	}
	match := func(port uint16) AppProto {
		switch port {
		case PortHTTP, PortHTTPAlt:
			return AppHTTP
		case PortHTTPS, PortHTTPSAlt:
			return AppHTTPS
		case PortDNS:
			return AppDNS
		case PortMDNS:
			return AppMDNS
		case PortSSDP:
			return AppSSDP
		case PortNTP:
			return AppNTP
		case PortDHCPSrv, PortDHCPCli:
			// DHCP is carried over the BOOTP message format; the
			// feature extractor sets both protocol bits for it.
			return AppDHCP
		default:
			return AppNone
		}
	}
	if app := match(dstPort); app != AppNone {
		return app
	}
	return match(srcPort)
}
