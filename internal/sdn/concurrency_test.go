package sdn

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/packet"
)

// TestConcurrentSwitchProcessing drives the switch from many goroutines
// while rules change underneath it; run with -race to validate the
// locking discipline of the whole enforcement plane.
func TestConcurrentSwitchProcessing(t *testing.T) {
	ctrl := newTestController()
	sw := NewSwitch(ctrl, time.Minute)
	now := time.Unix(0, 0)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				src := packet.MAC{0x02, byte(w), 0, 0, 0, byte(i % 7)}
				dst := netip.AddrFrom4([4]byte{52, 20, byte(w), byte(i % 250)})
				pk := packet.NewTCPSyn(src, gwMAC, ipA, dst, uint16(30000+i), 443)
				sw.Process(pk, now.Add(time.Duration(i)*time.Millisecond))
			}
		}(w)
	}
	// Concurrent rule churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			mac := packet.MAC{0x02, byte(i % 8), 0, 0, 0, byte(i % 7)}
			ctrl.Rules().Put(&EnforcementRule{DeviceMAC: mac, Level: Trusted})
			sw.InvalidateDevice(mac)
			if i%3 == 0 {
				ctrl.Rules().Remove(mac)
			}
		}
	}()
	// Concurrent expiry sweeps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			sw.Table().Expire(now.Add(time.Duration(i) * 10 * time.Millisecond))
		}
	}()
	wg.Wait()

	st := sw.Stats()
	if st.Forwarded+st.Dropped != 8*300 {
		t.Errorf("processed %d packets, want %d", st.Forwarded+st.Dropped, 8*300)
	}
}

func BenchmarkControllerPacketIn(b *testing.B) {
	ctrl := newTestController()
	key := flow(devB, gwMAC, ipB, cloud)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ctrl.PacketIn(key, time.Unix(0, 0))
	}
}

func BenchmarkFlowTableMatch(b *testing.B) {
	ft := NewFlowTable(time.Minute)
	key := flow(devA, devB, ipA, ipB)
	now := time.Unix(0, 0)
	ft.Install(key, ActionForward, now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ft.Match(key, 100, now); !ok {
			b.Fatal("flow missing")
		}
	}
}

// BenchmarkSwitchParallelDevices switches installed flows of distinct
// devices, one per goroutine and each in its own stripe, on every
// core: the enforced-packet path under parallel readers. Run with
// -cpu 1,2 to see what cores sharing it cost.
func BenchmarkSwitchParallelDevices(b *testing.B) {
	sw := NewSwitch(newTestController(), time.Minute)
	sw.SetMonitor(NewTrafficMonitor())
	var pks []*packet.Packet
	used := make(map[uint32]bool)
	for i := 0; len(pks) < flowStripes; i++ {
		mac := packet.MAC{0x02, 0xcc, 0, 0, byte(i >> 8), byte(i)}
		if h := packet.MACHash(mac) % flowStripes; !used[h] {
			used[h] = true
			pks = append(pks, packet.NewTCPSyn(mac, gwMAC, ipA, cloud, 40000, 443))
			sw.Process(pks[len(pks)-1], time.Unix(0, 0))
		}
	}
	var next atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pk := pks[int(next.Add(1)-1)%len(pks)]
		now := time.Unix(1, 0)
		for pb.Next() {
			sw.Process(pk, now)
		}
	})
}
