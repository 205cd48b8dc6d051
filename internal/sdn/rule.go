// Package sdn implements the enforcement substrate of Sect. V: an Open
// vSwitch–style software switch with a flow table, a Floodlight-style
// controller that installs per-flow entries, and the hash-indexed
// enforcement-rule cache (Fig 2) the Security Gateway uses to map each
// device to its isolation level.
package sdn

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"iotsentinel/internal/packet"
)

// IsolationLevel is the network access class assigned to a device
// (Fig 3 of the paper).
type IsolationLevel int

// Isolation levels. Strict is the zero-value-adjacent safest default
// for unknown devices.
const (
	// Strict allows communication only with devices inside the
	// untrusted overlay; no Internet access.
	Strict IsolationLevel = iota + 1
	// Restricted additionally allows a limited set of remote
	// destinations (e.g. the vendor's cloud service).
	Restricted
	// Trusted allows communication with the trusted overlay and
	// unrestricted Internet access.
	Trusted
)

// String returns the lowercase level name.
func (l IsolationLevel) String() string {
	switch l {
	case Strict:
		return "strict"
	case Restricted:
		return "restricted"
	case Trusted:
		return "trusted"
	default:
		return fmt.Sprintf("isolation(%d)", int(l))
	}
}

// EnforcementRule is the per-device policy of Fig 2: a device MAC, its
// isolation level, and — for Restricted — the permitted remote
// addresses through which the device reaches its cloud service.
type EnforcementRule struct {
	DeviceMAC    packet.MAC
	Level        IsolationLevel
	PermittedIPs []netip.Addr
	// DeviceType records the identified type for operator display.
	DeviceType string
}

// Hash returns the rule's cache key (Fig 2's hash value), an FNV-1a
// digest of the device MAC.
func (r *EnforcementRule) Hash() uint64 {
	h := fnv.New64a()
	_, _ = h.Write(r.DeviceMAC[:])
	return h.Sum64()
}

// Permits reports whether the rule allows the device to reach the
// given remote address.
func (r *EnforcementRule) Permits(addr netip.Addr) bool {
	for _, a := range r.PermittedIPs {
		if a == addr {
			return true
		}
	}
	return false
}

// approxRuleBytes estimates the cache memory footprint of one rule:
// struct, hash-bucket overhead, and permitted-IP storage.
func approxRuleBytes(r *EnforcementRule) int {
	const base = 96 // struct + map bucket share
	return base + len(r.PermittedIPs)*24 + len(r.DeviceType)
}

// RuleCache is the hash-table enforcement-rule store of Sect. V: O(1)
// lookup by device MAC so filtering latency stays flat as the rule set
// grows, with memory accounting for the Fig 6c experiment and explicit
// removal of rules for departed devices.
type RuleCache struct {
	mu    sync.RWMutex
	rules map[uint64]*EnforcementRule
	bytes int
	// hits/misses support cache instrumentation.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewRuleCache returns an empty cache.
func NewRuleCache() *RuleCache {
	return &RuleCache{rules: make(map[uint64]*EnforcementRule)}
}

// Put inserts or replaces the rule for its device MAC.
func (c *RuleCache) Put(r *EnforcementRule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := r.Hash()
	if old, ok := c.rules[key]; ok {
		c.bytes -= approxRuleBytes(old)
	}
	cp := *r
	cp.PermittedIPs = append([]netip.Addr(nil), r.PermittedIPs...)
	c.rules[key] = &cp
	c.bytes += approxRuleBytes(&cp)
}

// Get returns the rule for a device MAC, if present.
func (c *RuleCache) Get(mac packet.MAC) (*EnforcementRule, bool) {
	c.mu.RLock()
	r, ok := c.rules[macHash(mac)]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return r, ok
}

// Remove deletes the rule for a device that left the network.
func (c *RuleCache) Remove(mac packet.MAC) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := macHash(mac)
	r, ok := c.rules[key]
	if !ok {
		return false
	}
	c.bytes -= approxRuleBytes(r)
	delete(c.rules, key)
	return true
}

// Len returns the number of cached rules.
func (c *RuleCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.rules)
}

// ApproxBytes returns the estimated memory footprint of the cache,
// used by the Fig 6c memory-vs-rules experiment.
func (c *RuleCache) ApproxBytes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}

// Stats returns cumulative lookup hits and misses.
func (c *RuleCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Rules returns a snapshot of all rules sorted by device MAC.
func (c *RuleCache) Rules() []*EnforcementRule {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*EnforcementRule, 0, len(c.rules))
	for _, r := range c.rules {
		cp := *r
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].DeviceMAC.String() < out[j].DeviceMAC.String()
	})
	return out
}

// Digest returns an order-independent FNV-1a digest of the full rule
// table — MACs, levels, permitted IPs, and device types. Two caches
// with the same digest enforce identically; the crash-recovery tests
// use it to prove a recovered gateway reconciled the exact pre-crash
// enforcement state.
func (c *RuleCache) Digest() uint64 {
	rules := c.Rules() // sorted by MAC
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	for _, r := range rules {
		_, _ = h.Write(r.DeviceMAC[:])
		u64(uint64(r.Level))
		u64(uint64(len(r.PermittedIPs)))
		for _, ip := range r.PermittedIPs {
			b, _ := ip.MarshalBinary()
			_, _ = h.Write(b)
		}
		_, _ = h.Write([]byte(r.DeviceType))
	}
	return h.Sum64()
}

func macHash(mac packet.MAC) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(mac[:])
	return h.Sum64()
}
