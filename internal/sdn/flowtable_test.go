package sdn

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"iotsentinel/internal/packet"
)

// scanTable is the flow table as it was before striping and per-MAC
// chains: one map under one lock, with RemoveByMAC, Expire and LRU
// eviction scanning every entry. It is the oracle the chained table is
// checked against.
type scanTable struct {
	entries     map[packet.FlowKey]*FlowEntry
	IdleTimeout time.Duration
	MaxFlows    int
}

func newScanTable(idleTimeout time.Duration) *scanTable {
	return &scanTable{entries: make(map[packet.FlowKey]*FlowEntry), IdleTimeout: idleTimeout}
}

func (t *scanTable) Install(key packet.FlowKey, action Action, now time.Time) {
	if _, exists := t.entries[key]; !exists && t.MaxFlows > 0 && len(t.entries) >= t.MaxFlows {
		var lruKey packet.FlowKey
		var lru *FlowEntry
		for k, e := range t.entries {
			if lru == nil || e.LastUsed.Before(lru.LastUsed) {
				lruKey, lru = k, e
			}
		}
		delete(t.entries, lruKey)
	}
	t.entries[key] = &FlowEntry{Key: key, Action: action, Created: now, LastUsed: now}
}

func (t *scanTable) Match(key packet.FlowKey, size int, now time.Time) (Action, bool) {
	e, ok := t.entries[key]
	if !ok {
		return 0, false
	}
	e.Packets++
	e.Bytes += uint64(size)
	e.LastUsed = now
	return e.Action, true
}

func (t *scanTable) Expire(now time.Time) int {
	evicted := 0
	for k, e := range t.entries {
		if now.Sub(e.LastUsed) >= t.IdleTimeout {
			delete(t.entries, k)
			evicted++
		}
	}
	return evicted
}

func (t *scanTable) RemoveByMAC(mac packet.MAC) int {
	removed := 0
	for k := range t.entries {
		if k.SrcMAC == mac || k.DstMAC == mac {
			delete(t.entries, k)
			removed++
		}
	}
	return removed
}

// checkChains verifies the table's internal invariants: every flow is
// indexed in the stripe of its source MAC and sits on exactly its two
// chains, every chain is well linked, and the count matches.
func checkChains(t *testing.T, ft *FlowTable) {
	t.Helper()
	total := 0
	for i := range ft.stripes {
		s := &ft.stripes[i]
		onChain := make(map[*flowRecord]int)
		for mac, h := range s.heads {
			if h == [2]*flowRecord{} {
				t.Fatalf("stripe %d keeps an empty head for %#x", i, mac)
			}
			for c := range h {
				var prev *flowRecord
				for f := h[c]; f != nil; prev, f = f, f.next[c] {
					if f.prev[c] != prev {
						t.Fatalf("stripe %d chain %d of %v: broken back link", i, c, mac)
					}
					if want := [2]packet.MAC{f.key.SrcMAC, f.key.DstMAC}[c]; chainKey(want) != mac {
						t.Fatalf("flow %v on chain %d of %#x", f.key, c, mac)
					}
					onChain[f]++
				}
			}
		}
		for k, f := range s.flows {
			if ft.stripeOf(k.SrcMAC) != s {
				t.Fatalf("flow %v in stripe %d, not its source's", k, i)
			}
			if onChain[f] != 2 {
				t.Fatalf("flow %v on %d chains, want 2", k, onChain[f])
			}
		}
		if len(onChain) != len(s.flows) {
			t.Fatalf("stripe %d: %d chained records, %d indexed", i, len(onChain), len(s.flows))
		}
		total += len(s.flows)
	}
	if total != ft.Len() {
		t.Fatalf("Len = %d, stripes hold %d", ft.Len(), total)
	}
}

var broadcastMAC = packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// FuzzFlowTable runs one op sequence against the chained table (16
// stripes and 1 stripe), and, with a MaxFlows cap, against both
// capped, requiring each to agree with the scan oracle on every
// result, on Len and on every entry. The MAC pool includes broadcast,
// and keys include src == dst flows. The clock only moves forward, and
// by at least one step per op, so LRU victims are never tied.
func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{0, 0, 4, 7, 1, 0, 3, 0, 2, 0})
	f.Add([]byte{0, 6, 0, 12, 0, 24, 3, 1, 0, 18, 3, 2, 3, 4})
	f.Add([]byte{0, 49, 0, 44, 5, 49, 200, 0, 2, 9, 3, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// 64 ops over 50 keys reach every table state worth
		// reaching; longer inputs only slow the fuzzer's minimizer.
		if len(ops) > 128 {
			ops = ops[:128]
		}
		const idle = 10 * time.Second
		macs := []packet.MAC{devA, devB, devC, gwMAC, broadcastMAC}
		keyOf := func(b byte) packet.FlowKey {
			n := int(b) % 50
			k := flow(macs[n%5], macs[n/5%5], ipA, ipB)
			k.DstPort += uint16(n / 25)
			return k
		}
		type table interface {
			Install(packet.FlowKey, Action, time.Time)
			Match(packet.FlowKey, int, time.Time) (Action, bool)
			Expire(time.Time) int
			RemoveByMAC(packet.MAC) int
		}
		capped := newFlowTable(idle, flowStripes)
		capped.MaxFlows = 8
		cappedOracle := newScanTable(idle)
		cappedOracle.MaxFlows = 8
		pairs := []struct {
			got    *FlowTable
			oracle *scanTable
		}{
			{newFlowTable(idle, flowStripes), newScanTable(idle)},
			{newFlowTable(idle, 1), newScanTable(idle)},
			{capped, cappedOracle},
		}
		sameEntry := func(pi int, at string, k packet.FlowKey) {
			p := pairs[pi]
			e, ok := p.got.Entry(k)
			w, wok := p.oracle.entries[k]
			if ok != wok {
				t.Fatalf("pair %d %s: Entry(%v) present=%v, oracle %v", pi, at, k, ok, wok)
			}
			if ok && (e.Key != w.Key || e.Action != w.Action || e.Packets != w.Packets ||
				e.Bytes != w.Bytes || !e.Created.Equal(w.Created) || !e.LastUsed.Equal(w.LastUsed)) {
				t.Fatalf("pair %d %s: Entry = %+v, oracle %+v", pi, at, e, *w)
			}
		}
		now := time.Unix(1_000_000, 0)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			now = now.Add(time.Duration(op>>2+1) * 250 * time.Millisecond)
			at := fmt.Sprintf("op %d (%d,%d)", i/2, op, arg)
			for pi, p := range pairs {
				var res [2]string
				for j, tab := range []table{p.got, p.oracle} {
					switch op & 3 {
					case 0:
						tab.Install(keyOf(arg), Action(arg/50%2+1), now)
					case 1:
						act, ok := tab.Match(keyOf(arg), int(arg), now)
						res[j] = fmt.Sprint(act, ok)
					case 2:
						res[j] = fmt.Sprint(tab.Expire(now))
					case 3:
						res[j] = fmt.Sprint(tab.RemoveByMAC(macs[arg%5]))
					}
				}
				if res[0] != res[1] {
					t.Fatalf("pair %d %s: got %s, oracle %s", pi, at, res[0], res[1])
				}
				if p.got.Len() != len(p.oracle.entries) {
					t.Fatalf("pair %d %s: Len %d, oracle %d", pi, at, p.got.Len(), len(p.oracle.entries))
				}
				sameEntry(pi, at, keyOf(arg))
			}
		}
		for pi, p := range pairs {
			checkChains(t, p.got)
			for b := 0; b < 50; b++ {
				sameEntry(pi, "at end", keyOf(byte(b)))
			}
		}
	})
}

// TestStripesFillCacheLines pins the padding of the per-stripe
// structs the enforced-packet path writes: each must be a whole number
// of 64-byte cache lines, or neighbouring stripes share one.
func TestStripesFillCacheLines(t *testing.T) {
	for name, size := range map[string]uintptr{
		"stripe":        unsafe.Sizeof(stripe{}),
		"monitorStripe": unsafe.Sizeof(monitorStripe{}),
		"statStripe":    unsafe.Sizeof(statStripe{}),
	} {
		if size%64 != 0 {
			t.Errorf("%s is %d bytes, not a multiple of 64", name, size)
		}
	}
}

// BenchmarkInvalidateDevice removes one device's 10 flows and
// reinstalls them, at three table sizes. The chained table touches
// only that device's flows, so ns/op should not grow with the table.
func BenchmarkInvalidateDevice(b *testing.B) {
	const perDevice = 10
	for _, n := range []int{1_000, 10_000, 50_000} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			ft := NewFlowTable(time.Minute)
			now := time.Unix(0, 0)
			devices := n / perDevice
			keys := make([][perDevice]packet.FlowKey, devices)
			macs := make([]packet.MAC, devices)
			for d := range keys {
				macs[d] = packet.MAC{0x02, 0xbe, 0, byte(d >> 16), byte(d >> 8), byte(d)}
				for j := range keys[d] {
					// Seven flows out to the gateway, three back.
					k := flow(macs[d], gwMAC, ipA, cloud)
					if j >= 7 {
						k = flow(gwMAC, macs[d], cloud, ipA)
					}
					k.SrcPort += uint16(j)
					keys[d][j] = k
					ft.Install(k, ActionForward, now)
				}
			}
			if ft.Len() != n {
				b.Fatalf("installed %d flows, want %d", ft.Len(), n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := i % devices
				if got := ft.RemoveByMAC(macs[d]); got != perDevice {
					b.Fatalf("removed %d flows, want %d", got, perDevice)
				}
				for _, k := range keys[d] {
					ft.Install(k, ActionForward, now)
				}
			}
		})
	}
}
