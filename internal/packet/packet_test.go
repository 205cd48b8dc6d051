package packet

import (
	"net/netip"
	"testing"
)

var (
	testSrcMAC = MAC{0x13, 0x73, 0x74, 0x7e, 0xa9, 0xc2}
	testDstMAC = MAC{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	testSrcIP  = netip.AddrFrom4([4]byte{192, 168, 1, 50})
	testDstIP  = netip.AddrFrom4([4]byte{192, 168, 1, 1})
	testSrcIP6 = netip.MustParseAddr("fe80::1")
	testDstIP6 = netip.MustParseAddr("ff02::fb")
)

func TestMACString(t *testing.T) {
	if got, want := testSrcMAC.String(), "13:73:74:7e:a9:c2"; got != want {
		t.Errorf("MAC.String() = %q, want %q", got, want)
	}
}

// TestMACHashPinned pins the FNV-1a values: capture fanout, gateway
// shards and switch stripes all place devices by this hash, so a change
// would silently re-home every device.
func TestMACHashPinned(t *testing.T) {
	for _, c := range []struct {
		mac  MAC
		want uint32
	}{
		{MAC{0x02, 0xd0, 0, 0, 0, 1}, 0x8b69e2ec},
		{MAC{}, 0x7f77879d},
		{MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 0xc4f2886f},
	} {
		if got := MACHash(c.mac); got != c.want {
			t.Errorf("MACHash(%v) = %#x, want %#x", c.mac, got, c.want)
		}
	}
}

func TestParseMAC(t *testing.T) {
	tests := []struct {
		give    string
		want    MAC
		wantErr bool
	}{
		{give: "13:73:74:7e:a9:c2", want: testSrcMAC},
		{give: "13-73-74-7E-A9-C2", want: testSrcMAC},
		{give: "137374:7ea9c2", wantErr: true},
		{give: "13:73:74:7e:a9", wantErr: true},
		{give: "zz:73:74:7e:a9:c2", wantErr: true},
		{give: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseMAC(tt.give)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseMAC(%q) error = %v, wantErr %v", tt.give, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseMAC(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestMACPredicates(t *testing.T) {
	bcast := MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	mcast := MAC{0x01, 0x00, 0x5e, 0x00, 0x00, 0xfb}
	if !bcast.IsBroadcast() || !bcast.IsMulticast() {
		t.Error("broadcast MAC predicates failed")
	}
	if mcast.IsBroadcast() || !mcast.IsMulticast() {
		t.Error("multicast MAC predicates failed")
	}
	unicast := MAC{0x02, 0x42, 0xac, 0x11, 0x00, 0x02}
	if unicast.IsBroadcast() || unicast.IsMulticast() {
		t.Error("unicast MAC misclassified")
	}
}

func TestRoundTripUDP(t *testing.T) {
	p := NewUDP(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 50000, PortDNS, []byte("hello"))
	frame, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Link != LinkEthernet || got.Network != NetIPv4 || got.Transport != TransportUDP {
		t.Errorf("protocols = %v/%v/%v", got.Link, got.Network, got.Transport)
	}
	if got.SrcMAC != testSrcMAC || got.DstMAC != testDstMAC {
		t.Errorf("MACs = %v -> %v", got.SrcMAC, got.DstMAC)
	}
	if got.SrcIP != testSrcIP || got.DstIP != testDstIP {
		t.Errorf("IPs = %v -> %v", got.SrcIP, got.DstIP)
	}
	if got.SrcPort != 50000 || got.DstPort != PortDNS {
		t.Errorf("ports = %d -> %d", got.SrcPort, got.DstPort)
	}
	if got.App != AppDNS {
		t.Errorf("App = %v, want dns", got.App)
	}
	if string(got.Payload) != "hello" {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.Size != len(frame) {
		t.Errorf("Size = %d, want %d", got.Size, len(frame))
	}
}

func TestRoundTripTCP(t *testing.T) {
	p := NewHTTPGet(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 49152, "example.com", "/setup")
	frame, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Transport != TransportTCP || got.App != AppHTTP {
		t.Errorf("got %v/%v, want tcp/http", got.Transport, got.App)
	}
	if !got.HasRawData() {
		t.Error("HTTP GET should carry raw data")
	}
}

func TestRoundTripARP(t *testing.T) {
	p := NewARP(testSrcMAC, testSrcIP, testDstIP)
	frame, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Link != LinkARP {
		t.Errorf("Link = %v, want arp", got.Link)
	}
	if got.SrcIP != testSrcIP || got.DstIP != testDstIP {
		t.Errorf("ARP addresses = %v -> %v", got.SrcIP, got.DstIP)
	}
	if got.HasIP() {
		t.Error("ARP must not report an IP header")
	}
}

func TestRoundTripLLC(t *testing.T) {
	p := NewLLC(testSrcMAC, testDstMAC, []byte{1, 2, 3})
	frame, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Link != LinkLLC {
		t.Errorf("Link = %v, want llc", got.Link)
	}
	if len(got.Payload) != 3 {
		t.Errorf("payload len = %d, want 3", len(got.Payload))
	}
}

func TestRoundTripEAPoL(t *testing.T) {
	p := NewEAPoL(testSrcMAC, testDstMAC, 95)
	frame, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Network != NetEAPoL {
		t.Errorf("Network = %v, want eapol", got.Network)
	}
	if len(got.Payload) != 95 {
		t.Errorf("payload len = %d, want 95", len(got.Payload))
	}
}

func TestRoundTripICMP(t *testing.T) {
	p := NewICMPEcho(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 32)
	frame, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Network != NetICMP {
		t.Errorf("Network = %v, want icmp", got.Network)
	}
}

func TestRoundTripICMPv6(t *testing.T) {
	p := NewICMPEcho(testSrcMAC, testDstMAC, testSrcIP6, testDstIP6, 16)
	frame, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Network != NetICMPv6 {
		t.Errorf("Network = %v, want icmpv6", got.Network)
	}
	if got.SrcIP != testSrcIP6 || got.DstIP != testDstIP6 {
		t.Errorf("IPs = %v -> %v", got.SrcIP, got.DstIP)
	}
}

func TestRoundTripIPv6UDP(t *testing.T) {
	p := NewUDP(testSrcMAC, testDstMAC, testSrcIP6, testDstIP6, 5353, 5353, []byte{0, 0})
	frame, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Network != NetIPv6 || got.Transport != TransportUDP || got.App != AppMDNS {
		t.Errorf("got %v/%v/%v", got.Network, got.Transport, got.App)
	}
}

func TestIPv4Options(t *testing.T) {
	tests := []struct {
		name string
		give IPv4Options
	}{
		{name: "none", give: IPv4Options{}},
		{name: "padding", give: IPv4Options{Padding: true}},
		{name: "router-alert", give: IPv4Options{RouterAlert: true}},
		{name: "both", give: IPv4Options{Padding: true, RouterAlert: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := NewUDP(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 4000, 5000, nil)
			p.IPOpts = tt.give
			frame, err := p.Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			got, err := Decode(frame)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got.IPOpts.RouterAlert != tt.give.RouterAlert {
				t.Errorf("RouterAlert = %v, want %v", got.IPOpts.RouterAlert, tt.give.RouterAlert)
			}
			// Router alert is 4 bytes, so it needs no padding; padding
			// alone always round-trips.
			if tt.give.Padding && !got.IPOpts.Padding {
				t.Error("Padding lost in round trip")
			}
		})
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		give []byte
	}{
		{name: "empty", give: nil},
		{name: "short-ethernet", give: make([]byte, 10)},
		{name: "bad-ethertype", give: append(make([]byte, 12), 0xde, 0xad)},
		{name: "truncated-ipv4", give: append(make([]byte, 12), 0x08, 0x00, 0x45)},
		{name: "truncated-arp", give: append(make([]byte, 12), 0x08, 0x06, 0x00)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.give); err == nil {
				t.Errorf("Decode(%q) succeeded, want error", tt.give)
			}
		})
	}
}

func TestClassifyApp(t *testing.T) {
	tests := []struct {
		name      string
		transport TransportProto
		src, dst  uint16
		want      AppProto
	}{
		{"http-dst", TransportTCP, 40000, 80, AppHTTP},
		{"http-alt", TransportTCP, 40000, 8080, AppHTTP},
		{"http-src", TransportTCP, 80, 40000, AppHTTP},
		{"https", TransportTCP, 40000, 443, AppHTTPS},
		{"dns", TransportUDP, 40000, 53, AppDNS},
		{"mdns", TransportUDP, 5353, 5353, AppMDNS},
		{"ssdp", TransportUDP, 40000, 1900, AppSSDP},
		{"ntp", TransportUDP, 40000, 123, AppNTP},
		{"dhcp", TransportUDP, 68, 67, AppDHCP},
		{"bootp-reply", TransportUDP, 67, 68, AppDHCP},
		{"plain", TransportTCP, 40000, 9999, AppNone},
		{"no-transport", TransportNone, 0, 80, AppNone},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := classifyApp(tt.transport, tt.src, tt.dst); got != tt.want {
				t.Errorf("classifyApp(%v, %d, %d) = %v, want %v",
					tt.transport, tt.src, tt.dst, got, tt.want)
			}
		})
	}
}

func TestFlowKey(t *testing.T) {
	p := NewUDP(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 4000, 5000, nil)
	k := p.Flow()
	if k.SrcMAC != testSrcMAC || k.DstMAC != testDstMAC {
		t.Errorf("flow MACs = %v -> %v", k.SrcMAC, k.DstMAC)
	}
	if k.Ethertype != EtherTypeIPv4 {
		t.Errorf("Ethertype = 0x%04x, want IPv4", k.Ethertype)
	}
	arp := NewARP(testSrcMAC, testSrcIP, testDstIP)
	if got := arp.Flow().Ethertype; got != EtherTypeARP {
		t.Errorf("ARP flow ethertype = 0x%04x", got)
	}
}

func TestProtoStrings(t *testing.T) {
	if LinkARP.String() != "arp" || NetICMPv6.String() != "icmpv6" ||
		TransportUDP.String() != "udp" || AppMDNS.String() != "mdns" {
		t.Error("String() mismatch on known protocols")
	}
	if LinkProto(99).String() == "" || NetworkProto(99).String() == "" ||
		TransportProto(99).String() == "" || AppProto(99).String() == "" {
		t.Error("String() empty on unknown protocols")
	}
}

func TestDecodeIPv6ExtensionHeaders(t *testing.T) {
	// Build an IPv6+UDP frame, then splice a hop-by-hop extension
	// header between the IPv6 header and the UDP segment.
	p := NewUDP(testSrcMAC, testDstMAC, testSrcIP6, testDstIP6, 5353, 5353, []byte{1, 2})
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const ipv6Off = 14
	udpSeg := append([]byte(nil), frame[ipv6Off+40:]...)
	// Hop-by-hop: next=17 (UDP), len=0 (8 bytes), PadN filler.
	ext := []byte{17, 0, 1, 4, 0, 0, 0, 0}
	mutated := append([]byte(nil), frame[:ipv6Off+40]...)
	mutated = append(mutated, ext...)
	mutated = append(mutated, udpSeg...)
	mutated[ipv6Off+6] = 0 // next header: hop-by-hop
	newLen := uint16(len(ext) + len(udpSeg))
	mutated[ipv6Off+4] = byte(newLen >> 8)
	mutated[ipv6Off+5] = byte(newLen)

	got, err := Decode(mutated)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Transport != TransportUDP || got.SrcPort != 5353 {
		t.Errorf("got %v/%d after extension header", got.Transport, got.SrcPort)
	}
	if string(got.Payload) != "\x01\x02" {
		t.Errorf("payload = %v", got.Payload)
	}
}

func TestDecodeIPv6ExtensionErrors(t *testing.T) {
	p := NewUDP(testSrcMAC, testDstMAC, testSrcIP6, testDstIP6, 5353, 5353, nil)
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const ipv6Off = 14
	// Truncated extension header.
	mutated := append([]byte(nil), frame[:ipv6Off+40]...)
	mutated = append(mutated, 17, 0, 1) // 3 bytes only
	mutated[ipv6Off+6] = 0
	mutated[ipv6Off+4], mutated[ipv6Off+5] = 0, 3
	if _, err := Decode(mutated); err == nil {
		t.Error("truncated extension accepted")
	}
	// Extension loop (header chain pointing to itself).
	loop := append([]byte(nil), frame[:ipv6Off+40]...)
	for i := 0; i < 10; i++ {
		loop = append(loop, 0, 0, 1, 4, 0, 0, 0, 0) // next=hop-by-hop again
	}
	loop[ipv6Off+6] = 0
	n := uint16(10 * 8)
	loop[ipv6Off+4], loop[ipv6Off+5] = byte(n>>8), byte(n)
	if _, err := Decode(loop); err == nil {
		t.Error("extension chain loop accepted")
	}
}

func TestDecodeTCPWithOptions(t *testing.T) {
	// Build a TCP frame then widen the data offset with an MSS option.
	p := NewTCP(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 80, []byte("GET"))
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const ipOff = 14
	ihl := int(frame[ipOff]&0x0f) * 4
	tcpOff := ipOff + ihl
	// Insert 4 bytes of options (MSS 1460) after the 20-byte header.
	opts := []byte{2, 4, 5, 0xb4}
	mutated := append([]byte(nil), frame[:tcpOff+20]...)
	mutated = append(mutated, opts...)
	mutated = append(mutated, frame[tcpOff+20:]...)
	mutated[tcpOff+12] = (24 / 4) << 4 // data offset: 24 bytes
	// Fix IPv4 total length.
	total := uint16(len(mutated) - ipOff)
	mutated[ipOff+2], mutated[ipOff+3] = byte(total>>8), byte(total)

	got, err := Decode(mutated)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if string(got.Payload) != "GET" {
		t.Errorf("payload = %q, want GET (options must be skipped)", got.Payload)
	}
	if got.App != AppHTTP {
		t.Errorf("App = %v", got.App)
	}
}
