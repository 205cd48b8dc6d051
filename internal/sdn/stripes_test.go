package sdn_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"iotsentinel/internal/netsim"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
)

// TestStripeCountInvariant drives one seeded scenario through the
// Fig 4 lab on a 1-stripe and a 16-stripe switch: pings between the lab
// hosts, traffic among 48 extra devices, the gateway, broadcast and the
// Internet, re-levelled devices with their invalidations, and expiry
// sweeps. Every action, ping result, invalidation and expiry count and
// the final table must be identical: striping changes where a flow is
// kept, never what the switch decides.
func TestStripeCountInvariant(t *testing.T) {
	one := runStripedLab(t, 1)
	many := runStripedLab(t, 16)
	if len(one) != len(many) {
		t.Fatalf("trace lengths differ: %d vs %d", len(one), len(many))
	}
	for i := range one {
		if one[i] != many[i] {
			t.Fatalf("step %d: 1 stripe %q, 16 stripes %q", i, one[i], many[i])
		}
	}
}

func runStripedLab(t *testing.T, stripes int) []string {
	t.Helper()
	lab, err := netsim.NewLab(5)
	if err != nil {
		t.Fatal(err)
	}
	sw := sdn.NewSwitchStripes(lab.Ctrl, 30*time.Second, stripes)
	net := netsim.New(sw, netsim.DefaultModel(), 5)
	for _, name := range lab.Net.Hosts() {
		h, err := lab.Net.Host(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AddHost(*h); err != nil {
			t.Fatal(err)
		}
	}
	net.SetBackgroundFlows(150)

	rng := rand.New(rand.NewSource(11))
	level := func() sdn.IsolationLevel { return sdn.IsolationLevel(1 + rng.Intn(3)) }
	devs := make([]packet.MAC, 48)
	ips := make([]netip.Addr, len(devs))
	for i := range devs {
		devs[i] = packet.MAC{0x02, 0xee, 0, 0, byte(i >> 8), byte(i)}
		ips[i] = netip.AddrFrom4([4]byte{192, 168, 4, byte(10 + i)})
		lab.Cache.Put(&sdn.EnforcementRule{DeviceMAC: devs[i], Level: level(),
			PermittedIPs: []netip.Addr{netip.MustParseAddr("52.20.1.1")}})
	}
	hosts := net.Hosts()
	var keys []packet.FlowKey
	var trace []string
	for step := 0; step < 4000; step++ {
		vt := net.Clock().Add(time.Duration(step) * 10 * time.Millisecond)
		switch r := rng.Intn(20); {
		case r == 0:
			mac := devs[rng.Intn(len(devs))]
			if rng.Intn(4) == 0 {
				h, _ := net.Host(hosts[rng.Intn(len(hosts))])
				mac = h.MAC
			}
			lab.Cache.Put(&sdn.EnforcementRule{DeviceMAC: mac, Level: level()})
			trace = append(trace, fmt.Sprint("invalidate ", sw.InvalidateDevice(mac)))
		case r == 1:
			at := vt.Add(time.Duration(rng.Intn(60)) * time.Second)
			trace = append(trace, fmt.Sprint("expire ", sw.Table().Expire(at)))
		case r < 8:
			res, err := net.Ping(hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))])
			if err != nil {
				t.Fatal(err)
			}
			trace = append(trace, fmt.Sprint("ping ", res))
		default:
			i := rng.Intn(len(devs))
			dst, dstIP := devs[rng.Intn(len(devs))], ips[rng.Intn(len(ips))]
			switch rng.Intn(4) {
			case 0:
				dst, dstIP = netsim.GatewayMAC, netip.AddrFrom4([4]byte{52, 20, 1, byte(rng.Intn(3))})
			case 1:
				dst = packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
			}
			pk := packet.NewTCPSyn(devs[i], dst, ips[i], dstIP, uint16(40000+rng.Intn(4)), 443)
			keys = append(keys, pk.Flow())
			trace = append(trace, fmt.Sprint("process ", sw.Process(pk, vt)))
		}
	}
	for _, k := range keys {
		e, ok := sw.Table().Entry(k)
		trace = append(trace, fmt.Sprint("entry ", ok, e.Action, e.Packets, e.Bytes,
			e.Created.UnixNano(), e.LastUsed.UnixNano()))
	}
	return append(trace, fmt.Sprintf("stats %+v flows %d", sw.Stats(), sw.Table().Len()))
}
