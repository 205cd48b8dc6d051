package sdn

import (
	"testing"
	"time"

	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
)

// TestSwitchMetricsFlowTable checks the flow-table series: the entries
// gauge follows installs, invalidations and expiry, and one device
// invalidation counts once and touches exactly that device's flows.
func TestSwitchMetricsFlowTable(t *testing.T) {
	reg := obs.NewRegistry()
	sw := NewSwitch(newTestController(), time.Minute)
	now := time.Unix(0, 0)
	sw.Process(packet.NewTLSClientHello(devB, gwMAC, ipB, cloud, 40000, 10), now)
	sw.SetMetrics(NewSwitchMetrics(reg))
	if got := reg.Snapshot().Value("sdn_flow_table_entries"); got != 1 {
		t.Errorf("entries gauge on attach = %v, want 1", got)
	}

	// devA: two flows out, one in, one between devB and devC that does
	// not involve it.
	sw.Process(packet.NewTLSClientHello(devA, gwMAC, ipA, other, 40000, 10), now)
	sw.Process(packet.NewTCPSyn(devA, devC, ipA, ipC, 40001, 80), now)
	sw.Process(packet.NewTCPSyn(devC, devA, ipC, ipA, 40002, 80), now)
	sw.Process(packet.NewTCPSyn(devB, devC, ipB, ipC, 40003, 80), now)
	s := reg.Snapshot()
	if got := s.Value("sdn_flow_table_entries"); got != 5 {
		t.Fatalf("entries gauge = %v, want 5", got)
	}

	if n := sw.InvalidateDevice(devA); n != 3 {
		t.Fatalf("InvalidateDevice(devA) = %d, want 3", n)
	}
	s = reg.Snapshot()
	if got := s.Value("sdn_flow_invalidations_total"); got != 1 {
		t.Errorf("invalidations = %v, want 1", got)
	}
	if got := s.Value("sdn_flows_invalidated_total"); got != 3 {
		t.Errorf("flows invalidated = %v, want exactly devA's 3", got)
	}
	if got := s.Value("sdn_flow_table_entries"); got != 2 {
		t.Errorf("entries gauge after invalidation = %v, want 2", got)
	}

	sw.Table().Expire(now.Add(time.Hour))
	if got := reg.Snapshot().Value("sdn_flow_table_entries"); got != 0 {
		t.Errorf("entries gauge after expiry = %v, want 0", got)
	}
}
