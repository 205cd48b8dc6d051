package main

import (
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/gateway"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
)

// checkResult is the outcome of the end-of-run correctness checks.
type checkResult struct {
	assessed     int // devices in the assessed state
	typeChecked  int
	typeMismatch int // type or level differs from a direct Assess
	accN         int // assessed devices of a type the bank started with
	accuracy     float64
	flowKeys     int
	failOpen     int // installed forward flows the current rules would drop
}

// check runs the correctness checks on the drained stack:
//
//   - on join-storm and steady-enforce, every assessed device's type
//     and level equal a direct Assess of its own setup capture on the
//     same bank;
//   - id accuracy: the assigned type equals the device's catalog type;
//   - the fail-open audit: every flow key any device can send is
//     replayed through Controller.PacketIn, and an installed forward
//     flow that the current rules would drop counts as fail_open.
func (b *bench) check() checkResult {
	var c checkResult
	gw, svc := b.st.gw, b.st.svc
	correct := 0
	for _, info := range gw.Devices() {
		if info.State != gateway.StateAssessed {
			continue
		}
		c.assessed++
		d := b.hooks.byMAC[info.MAC]
		if d == nil {
			continue
		}
		if d.known {
			c.accN++
			if string(info.Type) == d.typ {
				correct++
			}
		}
		if !b.w.checkTypes {
			continue
		}
		pkts, err := d.decodeSetup()
		if err != nil {
			b.fail("check decode: %v", err)
			continue
		}
		a, err := svc.Assess(fingerprint.FromPackets(pkts))
		c.typeChecked++
		if err != nil || a.Type != info.Type || a.Level != info.Level {
			c.typeMismatch++
			if c.typeMismatch <= 5 {
				b.fail("device %v: gateway says %q/%v, direct Assess %q/%v (%v)", info.MAC, info.Type, info.Level, a.Type, a.Level, err)
			}
		}
	}
	if c.accN > 0 {
		c.accuracy = float64(correct) / float64(c.accN)
	}

	keys := make(map[packet.FlowKey]struct{})
	for _, d := range b.all {
		if err := d.flowKeys(keys); err != nil {
			b.fail("audit decode: %v", err)
		}
	}
	c.flowKeys = len(keys)
	table, ctrl := b.st.sw.Table(), b.st.ctrl
	now := time.Unix(0, b.rec.vOrigin).Add(time.Duration(b.rec.handledAt() * b.w.mult * 1e9))
	for k := range keys {
		e, ok := table.Entry(k)
		if !ok || e.Action != sdn.ActionForward {
			continue
		}
		if ctrl.PacketIn(k, now).Action == sdn.ActionDrop {
			c.failOpen++
		}
	}
	return c
}
