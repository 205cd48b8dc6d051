package sdn

import (
	"sync"
	"sync/atomic"
	"time"

	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
)

// Action is what the switch does with packets of a flow.
type Action int

// Flow actions.
const (
	ActionDrop Action = iota + 1
	ActionForward
)

// String returns the lowercase action name.
func (a Action) String() string {
	if a == ActionForward {
		return "forward"
	}
	return "drop"
}

// FlowEntry is one installed micro-flow: an exact-match key plus the
// action the controller decided.
type FlowEntry struct {
	Key      packet.FlowKey
	Action   Action
	Packets  uint64
	Bytes    uint64
	Created  time.Time
	LastUsed time.Time
}

// flowStripes is the flow table's fixed stripe count, a power of two.
// A flow lives in the stripe picked by packet.MACHash of its source
// MAC, the hash the capture fanout and the gateway shards use, so one
// device's flows share a stripe and one device's packets never contend
// with another stripe's lock.
const flowStripes = 16

// Chain indexes of a flow record's two intrusive per-MAC chains.
const (
	srcChain = iota // flows sharing the source MAC
	dstChain        // flows sharing the destination MAC
)

// flowRecord is one installed flow record. Match updates the counters
// atomically under its stripe's read lock; everything else changes
// only under the stripe's write lock. Times are unix nanoseconds, so
// they must lie in int64's range (years 1678 to 2262).
type flowRecord struct {
	key      packet.FlowKey
	action   Action
	created  int64
	packets  atomic.Uint64
	bytes    atomic.Uint64
	lastUsed atomic.Int64 // only ever advanced
	// prev/next thread the record on the chain of its source MAC
	// (srcChain) and of its destination MAC (dstChain).
	prev, next [2]*flowRecord
}

func (f *flowRecord) entry() FlowEntry {
	return FlowEntry{
		Key:      f.key,
		Action:   f.action,
		Packets:  f.packets.Load(),
		Bytes:    f.bytes.Load(),
		Created:  time.Unix(0, f.created).UTC(),
		LastUsed: time.Unix(0, f.lastUsed.Load()).UTC(),
	}
}

// touch advances lastUsed to now unless a concurrent Match already
// moved it further.
func (f *flowRecord) touch(now int64) {
	for {
		old := f.lastUsed.Load()
		if now <= old || f.lastUsed.CompareAndSwap(old, now) {
			return
		}
	}
}

// stripe is one lock's share of the table: the exact-match index and
// the heads of the per-MAC chains of the flows it holds. heads[mac][c]
// is the first flow whose chain-c MAC is mac, keyed by chainKey(mac).
// The maps are made on the stripe's first install. A stripe fills a
// cache line, so read-locking one stripe never writes a line another
// stripe's lock lives on.
type stripe struct {
	mu    sync.RWMutex
	flows map[packet.FlowKey]*flowRecord
	heads map[uint64][2]*flowRecord
	_     [24]byte
}

// chainKey packs a MAC into an integer: integer map keys take the
// runtime's fast path, which an install pays twice.
func chainKey(mac packet.MAC) uint64 {
	return uint64(mac[0])<<40 | uint64(mac[1])<<32 | uint64(mac[2])<<24 |
		uint64(mac[3])<<16 | uint64(mac[4])<<8 | uint64(mac[5])
}

func (s *stripe) link(f *flowRecord, c int, mac packet.MAC) {
	k := chainKey(mac)
	h := s.heads[k]
	if f.next[c] = h[c]; h[c] != nil {
		h[c].prev[c] = f
	}
	h[c] = f
	s.heads[k] = h
}

func (s *stripe) unlink(f *flowRecord, c int, mac packet.MAC) {
	if f.prev[c] != nil {
		f.prev[c].next[c] = f.next[c]
	} else {
		k := chainKey(mac)
		h := s.heads[k]
		if h[c] = f.next[c]; h == [2]*flowRecord{} {
			delete(s.heads, k)
		} else {
			s.heads[k] = h
		}
	}
	if f.next[c] != nil {
		f.next[c].prev[c] = f.prev[c]
	}
	f.prev[c], f.next[c] = nil, nil
}

// put installs or resets the record for key and reports whether it
// was new.
func (s *stripe) put(key packet.FlowKey, action Action, now int64) bool {
	f, ok := s.flows[key]
	if !ok {
		if s.flows == nil {
			s.flows = make(map[packet.FlowKey]*flowRecord)
			s.heads = make(map[uint64][2]*flowRecord, 16)
		}
		f = &flowRecord{key: key}
		s.flows[key] = f
		s.link(f, srcChain, key.SrcMAC)
		s.link(f, dstChain, key.DstMAC)
	}
	f.action = action
	f.created = now
	f.packets.Store(0)
	f.bytes.Store(0)
	f.lastUsed.Store(now)
	return !ok
}

func (s *stripe) remove(f *flowRecord) {
	delete(s.flows, f.key)
	s.unlink(f, srcChain, f.key.SrcMAC)
	s.unlink(f, dstChain, f.key.DstMAC)
}

// removeChain removes every flow on mac's chain c and returns how many.
func (s *stripe) removeChain(mac packet.MAC, c int) int {
	n := 0
	for f := s.heads[chainKey(mac)][c]; f != nil; n++ {
		next := f.next[c]
		s.remove(f)
		f = next
	}
	return n
}

// FlowTable is the switch's exact-match flow table, striped by source
// MAC. All methods are safe for concurrent use; Match takes only its
// stripe's read lock, and no method holds two stripe locks at once
// except a capped install (MaxFlows > 0), which takes them all in
// index order.
type FlowTable struct {
	stripes []stripe
	mask    uint32
	n       atomic.Int64
	// epoch counts invalidations (RemoveByMAC). A switch reads it
	// before asking the controller and installs the decision only if
	// it has not moved, so a decision made under a rule that was
	// replaced meanwhile is never installed.
	epoch atomic.Uint64
	// entries, when set, mirrors the flow count for /metrics.
	entries atomic.Pointer[obs.Gauge]
	// IdleTimeout evicts entries not used for this long (checked by
	// Expire, driven by the caller's clock).
	IdleTimeout time.Duration
	// MaxFlows caps the table size, as hardware and OVS tables are
	// bounded; 0 means unbounded. When full, Install evicts the
	// least-recently-used entry.
	MaxFlows int
}

// NewFlowTable returns an empty table with the given idle timeout
// (non-positive selects 30 s, a common OpenFlow default).
func NewFlowTable(idleTimeout time.Duration) *FlowTable {
	return newFlowTable(idleTimeout, flowStripes)
}

// newFlowTable builds a table with stripes stripes (a power of two).
func newFlowTable(idleTimeout time.Duration, stripes int) *FlowTable {
	if idleTimeout <= 0 {
		idleTimeout = 30 * time.Second
	}
	return &FlowTable{
		stripes:     make([]stripe, stripes),
		mask:        uint32(stripes - 1),
		IdleTimeout: idleTimeout,
	}
}

func (t *FlowTable) stripeOf(mac packet.MAC) *stripe {
	return &t.stripes[packet.MACHash(mac)&t.mask]
}

// resized records a change in the flow count.
func (t *FlowTable) resized(delta int) {
	n := t.n.Add(int64(delta))
	if g := t.entries.Load(); g != nil {
		g.Set(n)
	}
}

// Install adds or replaces the entry for key, evicting the least-
// recently-used entry when the table is at MaxFlows capacity.
func (t *FlowTable) Install(key packet.FlowKey, action Action, now time.Time) {
	t.install(key, action, now, 0, false)
}

// installAt installs like Install unless an invalidation ran since the
// caller read epoch, and reports whether it installed.
func (t *FlowTable) installAt(key packet.FlowKey, action Action, now time.Time, epoch uint64) bool {
	return t.install(key, action, now, epoch, true)
}

func (t *FlowTable) install(key packet.FlowKey, action Action, now time.Time, epoch uint64, fenced bool) bool {
	i := packet.MACHash(key.SrcMAC) & t.mask
	home := &t.stripes[i]
	// A MaxFlows cap is table-wide and so is its LRU victim, so a
	// capped install holds every stripe lock, taken in index order.
	locked := t.stripes[i : i+1]
	if t.MaxFlows > 0 {
		locked = t.stripes
	}
	for j := range locked {
		locked[j].mu.Lock()
	}
	defer func() {
		for j := range locked {
			locked[j].mu.Unlock()
		}
	}()
	if fenced && t.epoch.Load() != epoch {
		return false
	}
	if _, exists := home.flows[key]; !exists && t.MaxFlows > 0 && t.Len() >= t.MaxFlows {
		t.evictLRU()
	}
	if home.put(key, action, now.UnixNano()) {
		t.resized(1)
	}
	return true
}

// evictLRU removes the least-recently-used flow of the whole table.
// The caller holds every stripe lock.
func (t *FlowTable) evictLRU() {
	var lru *flowRecord
	var lruStripe *stripe
	for i := range t.stripes {
		for _, f := range t.stripes[i].flows {
			if lru == nil || f.lastUsed.Load() < lru.lastUsed.Load() {
				lru, lruStripe = f, &t.stripes[i]
			}
		}
	}
	if lru != nil {
		lruStripe.remove(lru)
		t.resized(-1)
	}
}

// Match looks up the flow for key and, on a hit, updates its counters.
func (t *FlowTable) Match(key packet.FlowKey, size int, now time.Time) (Action, bool) {
	s := t.stripeOf(key.SrcMAC)
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.flows[key]
	if !ok {
		return 0, false
	}
	f.packets.Add(1)
	f.bytes.Add(uint64(size))
	f.touch(now.UnixNano())
	return f.action, true
}

// Expire removes entries idle longer than IdleTimeout and returns the
// number evicted. It holds one stripe lock at a time.
func (t *FlowTable) Expire(now time.Time) int {
	cutoff := now.UnixNano() - int64(t.IdleTimeout)
	evicted := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		n := 0
		for _, f := range s.flows {
			if f.lastUsed.Load() <= cutoff {
				s.remove(f)
				n++
			}
		}
		if n > 0 {
			t.resized(-n)
		}
		s.mu.Unlock()
		evicted += n
	}
	return evicted
}

// RemoveByMAC evicts all flows involving the MAC (both directions),
// used when a device's isolation level changes. It walks only mac's
// chains: the source chain in mac's own stripe and the destination
// chain in every stripe, one stripe lock at a time.
//
// It bumps the invalidation epoch before touching any stripe. An
// installAt that read the old epoch either holds a stripe lock before
// this walk takes it, so its flow is on a chain and gets removed, or
// after, so it sees the new epoch and refuses.
func (t *FlowTable) RemoveByMAC(mac packet.MAC) int {
	t.epoch.Add(1)
	home := t.stripeOf(mac)
	removed := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		h := s.heads[chainKey(mac)]
		s.mu.RUnlock()
		if h[dstChain] == nil && (s != home || h[srcChain] == nil) {
			continue
		}
		s.mu.Lock()
		n := s.removeChain(mac, dstChain)
		if s == home {
			// Flows with src == dst == mac left with the
			// destination chain.
			n += s.removeChain(mac, srcChain)
		}
		if n > 0 {
			t.resized(-n)
		}
		s.mu.Unlock()
		removed += n
	}
	return removed
}

// Len returns the number of installed flows.
func (t *FlowTable) Len() int { return int(t.n.Load()) }

// Entry returns a copy of the entry for key, if installed. Created and
// LastUsed come back in UTC.
func (t *FlowTable) Entry(key packet.FlowKey) (FlowEntry, bool) {
	s := t.stripeOf(key.SrcMAC)
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.flows[key]
	if !ok {
		return FlowEntry{}, false
	}
	return f.entry(), true
}
