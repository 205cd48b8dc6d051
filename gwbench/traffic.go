package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync/atomic"
	"time"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/packet"
)

// frame is one pre-marshaled frame of a device script. off is its
// virtual-time offset from the script's first frame.
type frame struct {
	off  time.Duration
	data []byte
}

// device is one modeled device: its true catalog type, its setup
// capture and the standby/operation traffic it repeats once enforced.
// Frames are marshaled once during set-up; the generator only stamps
// times on them.
type device struct {
	idx   int
	mac   packet.MAC
	typ   string
	known bool // the type is in the bank the run starts with
	setup []frame
	// traffic is cycled by the steady stream; its first burstLen frames
	// double as the post-setup burst whose first frame closes the
	// capture.
	traffic []frame
	traced  bool

	// Generator-owned state.
	next     int  // next traffic frame
	away     bool // left the network or re-joining; skipped by the steady stream
	epoch    uint32
	inFlight bool // a join script is running

	// closeDue is the wall-clock due time (unix ns) of the frame that
	// closes the device's current capture, set by the generator just
	// before it injects that frame and consumed by the first
	// OnAssessed/OnQuarantined hook that follows.
	closeDue atomic.Int64
	// reqID is the per-device request ID spans carry (index and join
	// epoch).
	reqID atomic.Uint64
}

// arena packs frame bytes into large shared chunks, so the harness's
// pre-generated traffic is a few pointer-free objects to the garbage
// collector instead of one allocation per frame.
type arena struct{ buf []byte }

func (a *arena) copy(b []byte) []byte {
	if len(a.buf)+len(b) > cap(a.buf) {
		a.buf = make([]byte, 0, max(4<<20, len(b)))
	}
	a.buf = append(a.buf, b...)
	n := len(a.buf)
	return a.buf[n-len(b) : n : n]
}

// burstLen is the length of the post-setup burst a joining device sends
// right after its idle gap.
const burstLen = 4

// burstGap spaces the burst frames in virtual time.
const burstGap = 50 * time.Millisecond

// traceEvery samples one device in this many for span recording.
const traceEvery = 16

// localNet is the site prefix the controller treats as local; device
// addresses inside it are rewritten to the device's own address when
// standby and operation traffic is grafted onto a setup capture.
var localNet = netip.MustParsePrefix("192.168.0.0/16")

// makeDevices synthesizes n devices of the given profiles, round-robin
// over profiles, each from its own seeded captures. Every device cycles
// through trafficLen frames of its standby and operation traffic
// (repeated or cut to fit). known marks whether the profiles are in the
// serving bank. Indices start at base. MACs are random per capture; a
// capture whose MAC is already in seen is skipped for a spare.
func makeDevices(ar *arena, profiles []*devices.Profile, n, trafficLen int, seed int64, base int, known bool, seen map[packet.MAC]bool) ([]*device, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]*device, 0, n)
	per := (n + len(profiles) - 1) / len(profiles)
	for pi, p := range profiles {
		k := per
		if rem := n - len(out); rem < k {
			k = rem
		}
		if k <= 0 {
			break
		}
		pseed := seed*1000003 + int64(pi)*7919 + int64(base)
		caps := devices.GenerateCaptures(p, k+2+k/32, pseed)
		rng := rand.New(rand.NewSource(pseed ^ 0x5bd1e995))
		taken := 0
		for _, c := range caps {
			if taken == k {
				break
			}
			if seen[c.MAC] {
				continue
			}
			seen[c.MAC] = true
			taken++
			d := &device{mac: c.MAC, typ: c.Type, known: known}
			var err error
			if d.setup, err = marshalScript(ar, c.Packets, c.Times, c.MAC, netip.Addr{}); err != nil {
				return nil, err
			}
			ip := deviceAddr(c.Packets, c.MAC)
			st := p.GenerateStandby(rng, 1)
			op := p.GenerateOperation(rng, 2)
			pkts := append(append([]*packet.Packet(nil), op.Packets...), st.Packets...)
			times := make([]time.Time, len(pkts))
			if d.traffic, err = marshalScript(ar, pkts, times, c.MAC, ip); err != nil {
				return nil, err
			}
			if len(d.traffic) == 0 {
				return nil, fmt.Errorf("%s: no standby or operation traffic", c.Type)
			}
			for len(d.traffic) < trafficLen {
				d.traffic = append(d.traffic, d.traffic[:min(len(d.traffic), trafficLen-len(d.traffic))]...)
			}
			d.traffic = d.traffic[:trafficLen]
			out = append(out, d)
		}
		if taken < k {
			return nil, fmt.Errorf("%s: %d of %d captures had unique MACs", p.ID, taken, k)
		}
	}
	// Interleave types so any prefix of the slice is a type mix, not a
	// run of one profile.
	r := rand.New(rand.NewSource(seed + int64(base)))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i, d := range out {
		d.idx = base + i
		d.traced = d.idx%traceEvery == 0
		d.reqID.Store(uint64(d.idx) << 16)
	}
	return out, nil
}

// deviceAddr is the first site-local IPv4 source address the device
// used in its setup capture (its DHCP lease).
func deviceAddr(pkts []*packet.Packet, mac packet.MAC) netip.Addr {
	for _, pk := range pkts {
		if pk.SrcMAC == mac && pk.SrcIP.Is4() && localNet.Contains(pk.SrcIP) {
			return pk.SrcIP
		}
	}
	return netip.Addr{}
}

// marshalScript serializes packets as the frames of one device. With a
// valid ip, packets are rewritten to come from mac/ip: standby and
// operation traffic is synthesized with its own random identity.
// Offsets are relative to the first timestamp (all zero if times are).
func marshalScript(ar *arena, pkts []*packet.Packet, times []time.Time, mac packet.MAC, ip netip.Addr) ([]frame, error) {
	out := make([]frame, 0, len(pkts))
	for i, pk := range pkts {
		if ip.IsValid() {
			cp := *pk
			cp.SrcMAC = mac
			if cp.SrcIP.Is4() && localNet.Contains(cp.SrcIP) {
				cp.SrcIP = ip
			}
			pk = &cp
		}
		data, err := pk.Marshal()
		if err != nil {
			return nil, fmt.Errorf("marshal: %w", err)
		}
		var off time.Duration
		if !times[0].IsZero() {
			off = times[i].Sub(times[0])
		}
		out = append(out, frame{off: off, data: ar.copy(data)})
	}
	return out, nil
}

// setupDur is the virtual duration of the device's setup capture.
func (d *device) setupDur() time.Duration { return d.setup[len(d.setup)-1].off }

// decodeSetup decodes the setup frames back into packets (for the
// direct-assessment check).
func (d *device) decodeSetup() ([]*packet.Packet, error) {
	out := make([]*packet.Packet, 0, len(d.setup))
	for _, f := range d.setup {
		pk, err := packet.Decode(f.data)
		if err != nil {
			return nil, err
		}
		out = append(out, pk)
	}
	return out, nil
}

// flowKeys returns every flow key the device's frames carry.
func (d *device) flowKeys(dst map[packet.FlowKey]struct{}) error {
	for _, fs := range [][]frame{d.setup, d.traffic} {
		for _, f := range fs {
			pk, err := packet.Decode(f.data)
			if err != nil {
				return err
			}
			dst[pk.Flow()] = struct{}{}
		}
	}
	return nil
}
