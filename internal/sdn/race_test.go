package sdn

import (
	"testing"
	"time"

	"iotsentinel/internal/packet"
)

// TestInstallRaceWithInvalidation replays, deterministically, a packet
// whose flow-table miss is decided under a destination's old rule while
// that destination is downgraded and invalidated, before the decision
// is installed. The decision must not be installed: the packet is
// re-decided under the new rule, and no forward flow to the downgraded
// device survives the invalidation.
func TestInstallRaceWithInvalidation(t *testing.T) {
	ctrl := newTestController()
	ctrl.Rules().Put(&EnforcementRule{DeviceMAC: devA, Level: Trusted})
	sw := NewSwitch(ctrl, time.Minute)
	now := time.Unix(100, 0)
	// devC and devA are both trusted: local traffic between them
	// forwards.
	pk := packet.NewTCPSyn(devC, devA, ipC, ipA, 40000, 443)

	raced := false
	sw.beforeInstall = func() {
		if raced {
			return
		}
		raced = true
		ctrl.Rules().Put(&EnforcementRule{DeviceMAC: devA, Level: Strict})
		sw.InvalidateDevice(devA)
	}
	if act := sw.Process(pk, now); act != ActionDrop {
		t.Errorf("racing packet = %v, want drop under devA's new rule", act)
	}
	if e, ok := sw.Table().Entry(pk.Flow()); ok && e.Action != ActionDrop {
		t.Fatalf("stale %v flow installed after devA's invalidation", e.Action)
	}
	for i := 1; i <= 3; i++ {
		if act := sw.Process(pk, now.Add(time.Duration(i)*time.Second)); act != ActionDrop {
			t.Fatalf("packet %d to the downgraded device = %v, want drop", i, act)
		}
	}
}

// TestInstallRetriesExhausted invalidates the destination during every
// decision: the switch gives up after installRetries decisions and
// returns the last one without installing a flow.
func TestInstallRetriesExhausted(t *testing.T) {
	ctrl := newTestController()
	sw := NewSwitch(ctrl, time.Minute)
	pk := packet.NewTCPSyn(devC, devA, ipC, ipA, 40000, 443)
	level := Trusted
	sw.beforeInstall = func() {
		ctrl.Rules().Put(&EnforcementRule{DeviceMAC: devA, Level: level})
		sw.InvalidateDevice(devA)
		if level == Trusted {
			level = Strict
		} else {
			level = Trusted
		}
	}
	before := ctrl.PacketIns()
	// The decisions see devA strict (its initial rule), trusted,
	// strict, ... so the last one forwards after an even number.
	want := ActionDrop
	if installRetries%2 == 0 {
		want = ActionForward
	}
	if act := sw.Process(pk, time.Unix(0, 0)); act != want {
		t.Errorf("action = %v, want the last decision (%v)", act, want)
	}
	if got := ctrl.PacketIns() - before; got != installRetries {
		t.Errorf("controller decided %d times, want %d", got, installRetries)
	}
	if sw.Table().Len() != 0 {
		t.Errorf("table holds %d flows, want none after exhausted retries", sw.Table().Len())
	}
	if st := sw.Stats(); st.PacketIns != 1 || st.Forwarded+st.Dropped != 1 {
		t.Errorf("stats = %+v, want one packet-in, one packet", st)
	}
}
