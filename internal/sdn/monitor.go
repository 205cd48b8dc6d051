package sdn

import (
	"net/netip"
	"sort"
	"sync"
	"time"

	"iotsentinel/internal/packet"
)

// DeviceStats aggregates per-device traffic counters maintained by the
// controller's monitoring module (Sect. V: "network monitoring tasks").
type DeviceStats struct {
	MAC       packet.MAC
	Packets   uint64
	Bytes     uint64
	Dropped   uint64
	FirstSeen time.Time
	LastSeen  time.Time
	// Destinations counts distinct remote endpoints contacted.
	Destinations int
}

// TrafficMonitor tracks per-source-device traffic through the switch.
// All methods are safe for concurrent use. Devices are striped by
// packet.MACHash like the flow table, so devices in different stripes
// never share a lock.
type TrafficMonitor struct {
	stripes [flowStripes]monitorStripe
}

// monitorStripe fills a cache line, like the flow table's stripes.
type monitorStripe struct {
	mu    sync.Mutex
	stats map[packet.MAC]*deviceAccum
	_     [48]byte
}

type deviceAccum struct {
	DeviceStats

	// dsts is keyed by the address value, not its string form:
	// netip.Addr is comparable, and rendering a string per observed
	// packet was the one allocation left on the assessed-device data
	// path.
	dsts map[netip.Addr]struct{}
}

// NewTrafficMonitor returns an empty monitor.
func NewTrafficMonitor() *TrafficMonitor { return &TrafficMonitor{} }

func (m *TrafficMonitor) stripeOf(mac packet.MAC) *monitorStripe {
	return &m.stripes[packet.MACHash(mac)%flowStripes]
}

// Observe records one processed packet and its verdict.
func (m *TrafficMonitor) Observe(pk *packet.Packet, action Action, now time.Time) {
	s := m.stripeOf(pk.SrcMAC)
	s.mu.Lock()
	defer s.mu.Unlock()
	acc, ok := s.stats[pk.SrcMAC]
	if !ok {
		if s.stats == nil {
			s.stats = make(map[packet.MAC]*deviceAccum)
		}
		acc = &deviceAccum{
			DeviceStats: DeviceStats{MAC: pk.SrcMAC, FirstSeen: now},
			dsts:        make(map[netip.Addr]struct{}),
		}
		s.stats[pk.SrcMAC] = acc
	}
	acc.Packets++
	acc.Bytes += uint64(pk.Size)
	acc.LastSeen = now
	if action == ActionDrop {
		acc.Dropped++
	}
	if pk.DstIP.IsValid() {
		acc.dsts[pk.DstIP] = struct{}{}
		acc.Destinations = len(acc.dsts)
	}
}

// Device returns the stats for one device.
func (m *TrafficMonitor) Device(mac packet.MAC) (DeviceStats, bool) {
	s := m.stripeOf(mac)
	s.mu.Lock()
	defer s.mu.Unlock()
	acc, ok := s.stats[mac]
	if !ok {
		return DeviceStats{}, false
	}
	return acc.DeviceStats, true
}

// TopTalkers returns up to n devices ordered by descending byte count.
func (m *TrafficMonitor) TopTalkers(n int) []DeviceStats {
	var out []DeviceStats
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		for _, acc := range s.stats {
			out = append(out, acc.DeviceStats)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].MAC.String() < out[j].MAC.String()
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Forget drops a device's counters (e.g. after RemoveDevice).
func (m *TrafficMonitor) Forget(mac packet.MAC) {
	s := m.stripeOf(mac)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.stats, mac)
}

// Len returns the number of tracked devices.
func (m *TrafficMonitor) Len() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		n += len(s.stats)
		s.mu.Unlock()
	}
	return n
}

// SetMonitor attaches a traffic monitor to the switch; every processed
// packet is observed. Pass nil to detach.
func (s *Switch) SetMonitor(m *TrafficMonitor) { s.monitor.Store(m) }
