package sdn

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"iotsentinel/internal/packet"
)

// Overlay is one of the two virtual network overlays of Sect. III-C1.
type Overlay int

// Overlays. Devices with Trusted isolation live in the trusted overlay;
// everything else (strict, restricted, unknown) stays untrusted.
const (
	OverlayUntrusted Overlay = iota + 1
	OverlayTrusted
)

// String returns the lowercase overlay name.
func (o Overlay) String() string {
	if o == OverlayTrusted {
		return "trusted"
	}
	return "untrusted"
}

// OverlayFor maps an isolation level to its overlay.
func OverlayFor(level IsolationLevel) Overlay {
	if level == Trusted {
		return OverlayTrusted
	}
	return OverlayUntrusted
}

// Decision is the controller's verdict for one packet-in, with the
// reason for audit logging.
type Decision struct {
	Action Action
	Reason string
}

// Controller is the Floodlight-style custom module of Sect. V: it owns
// the enforcement-rule cache and decides packet-in events according to
// each device's isolation level and overlay membership.
type Controller struct {
	mu sync.RWMutex
	// rules is the per-device enforcement-rule cache.
	rules *RuleCache
	// localPrefixes separate local destinations from the Internet;
	// they always include IPv6 link-local (fe80::/10) and unique-local
	// (fc00::/7) space in addition to the configured site prefix.
	localPrefixes []netip.Prefix
	// infrastructure MACs (the gateway itself, its DNS/DHCP service)
	// are always reachable.
	infra map[packet.MAC]bool
	// filtering toggles enforcement; when false every flow forwards
	// (the paper's "without filtering" baseline).
	filtering bool

	packetIns atomic.Uint64
}

// NewController returns a controller enforcing rules from cache within
// the given local prefix. A zero prefix selects 192.168.0.0/16.
func NewController(cache *RuleCache, localPrefix netip.Prefix) *Controller {
	if !localPrefix.IsValid() {
		localPrefix = netip.MustParsePrefix("192.168.0.0/16")
	}
	return &Controller{
		rules: cache,
		localPrefixes: []netip.Prefix{
			localPrefix,
			netip.MustParsePrefix("fe80::/10"),
			netip.MustParsePrefix("fc00::/7"),
		},
		infra:     make(map[packet.MAC]bool),
		filtering: true,
	}
}

// isLocal reports whether addr belongs to the local network.
func (c *Controller) isLocal(addr netip.Addr) bool {
	for _, p := range c.localPrefixes {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

// Rules exposes the enforcement-rule cache.
func (c *Controller) Rules() *RuleCache { return c.rules }

// QuarantineType is the DeviceType marker carried by fail-closed rules
// installed while a device's assessment is pending retry.
const QuarantineType = "quarantined"

// Quarantine installs — or replaces an existing rule with — a strict,
// fail-closed rule for a device whose assessment failed: per the
// paper's untrusted-by-default posture (Sect. III-B), a device the
// service could not vouch for gets no Internet access and stays in the
// untrusted overlay until a later assessment succeeds.
func (c *Controller) Quarantine(mac packet.MAC) {
	c.rules.Put(&EnforcementRule{DeviceMAC: mac, Level: Strict, DeviceType: QuarantineType})
}

// SetFiltering toggles enforcement (true = filter, false = forward
// everything), matching the with/without-filtering measurement modes.
func (c *Controller) SetFiltering(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.filtering = on
}

// Filtering reports whether enforcement is active.
func (c *Controller) Filtering() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.filtering
}

// AddInfrastructure marks a MAC (gateway interface, servers under the
// operator's control) as always reachable.
func (c *Controller) AddInfrastructure(mac packet.MAC) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.infra[mac] = true
}

// PacketIns returns the number of packet-in events handled.
func (c *Controller) PacketIns() uint64 { return c.packetIns.Load() }

// overlayOf returns the overlay a device belongs to: the overlay of its
// rule's level, or untrusted when the device has no rule yet (unknown
// devices are assigned strict isolation, Sect. III-B).
func (c *Controller) overlayOf(mac packet.MAC) Overlay {
	if r, ok := c.rules.Get(mac); ok {
		return OverlayFor(r.Level)
	}
	return OverlayUntrusted
}

// levelOf returns the effective isolation level for a device: its rule,
// or Strict when unknown.
func (c *Controller) levelOf(mac packet.MAC) (IsolationLevel, *EnforcementRule) {
	if r, ok := c.rules.Get(mac); ok {
		return r.Level, r
	}
	return Strict, nil
}

// PacketIn decides the fate of a new flow. It implements Fig 3:
//
//   - strict:     untrusted overlay peers only, no Internet
//   - restricted: untrusted overlay peers + permitted remote addresses
//   - trusted:    trusted overlay peers + unrestricted Internet
//
// Device-to-device traffic additionally requires both endpoints to be
// in the same overlay, so a compromised untrusted device can never
// reach a trusted one.
func (c *Controller) PacketIn(key packet.FlowKey, _ time.Time) Decision {
	c.packetIns.Add(1)
	c.mu.RLock()
	filtering := c.filtering
	srcInfra := c.infra[key.SrcMAC]
	dstInfra := c.infra[key.DstMAC]
	c.mu.RUnlock()

	if !filtering {
		return Decision{Action: ActionForward, Reason: "filtering disabled"}
	}
	if srcInfra {
		return Decision{Action: ActionForward, Reason: "infrastructure source"}
	}
	// Broadcast and multicast control traffic (DHCP, ARP, SSDP, mDNS)
	// must flow for devices to function at all; it stays on the local
	// segment.
	if key.DstMAC.IsBroadcast() || key.DstMAC.IsMulticast() {
		return Decision{Action: ActionForward, Reason: "local broadcast/multicast"}
	}

	level, rule := c.levelOf(key.SrcMAC)

	// Internet-bound traffic is recognized by destination address, not
	// MAC: the next-hop MAC of an outbound packet is the gateway's own
	// interface, so the infrastructure check must not short-circuit it.
	if !key.DstIP.IsValid() || c.isLocal(key.DstIP) {
		if dstInfra {
			return Decision{Action: ActionForward, Reason: "infrastructure destination"}
		}
		srcOverlay := OverlayFor(level)
		dstOverlay := c.overlayOf(key.DstMAC)
		if srcOverlay == dstOverlay {
			return Decision{Action: ActionForward, Reason: "same overlay (" + srcOverlay.String() + ")"}
		}
		return Decision{Action: ActionDrop, Reason: "cross-overlay isolation"}
	}

	// Internet-bound traffic.
	switch level {
	case Trusted:
		return Decision{Action: ActionForward, Reason: "trusted: full internet access"}
	case Restricted:
		if rule != nil && rule.Permits(key.DstIP) {
			return Decision{Action: ActionForward, Reason: "restricted: permitted endpoint"}
		}
		return Decision{Action: ActionDrop, Reason: "restricted: endpoint not permitted"}
	default:
		return Decision{Action: ActionDrop, Reason: "strict: no internet access"}
	}
}

// SwitchStats counts switch activity.
type SwitchStats struct {
	Forwarded uint64
	Dropped   uint64
	PacketIns uint64
	TableHits uint64
}

// Switch is the Open vSwitch analogue: an exact-match flow table in
// front of the controller. The first packet of each flow goes to the
// controller (packet-in); the decision is installed as a micro-flow and
// subsequent packets are switched in the fast path. Process takes no
// switch-wide lock: counters are atomics, striped like the flow table,
// and the attached monitor and metrics are atomic pointers.
type Switch struct {
	// stats is first so the cache-line-sized stripes start on a line.
	stats [flowStripes]statStripe
	table *FlowTable
	ctrl  *Controller

	monitor atomic.Pointer[TrafficMonitor]
	metrics atomic.Pointer[SwitchMetrics]

	// beforeInstall, when set by a test, runs between the controller's
	// decision and the flow install of a table miss.
	beforeInstall func()
}

// statStripe holds the switch counters of the devices in one stripe,
// padded to a cache line so two cores counting different devices'
// packets do not write the same line.
type statStripe struct {
	forwarded atomic.Uint64
	dropped   atomic.Uint64
	packetIns atomic.Uint64
	tableHits atomic.Uint64
	_         [32]byte
}

// installRetries bounds how often a table miss asks the controller
// again after an invalidation raced its install.
const installRetries = 4

// NewSwitch wires a switch to its controller.
func NewSwitch(ctrl *Controller, idleTimeout time.Duration) *Switch {
	return newSwitch(ctrl, idleTimeout, flowStripes)
}

func newSwitch(ctrl *Controller, idleTimeout time.Duration, stripes int) *Switch {
	return &Switch{table: newFlowTable(idleTimeout, stripes), ctrl: ctrl}
}

// Table exposes the flow table.
func (s *Switch) Table() *FlowTable { return s.table }

// Controller exposes the controller.
func (s *Switch) Controller() *Controller { return s.ctrl }

// Process forwards or drops one packet, installing a flow on miss.
func (s *Switch) Process(pk *packet.Packet, now time.Time) Action {
	key := pk.Flow()
	act, hit := s.table.Match(key, pk.Size, now)
	st := &s.stats[packet.MACHash(key.SrcMAC)%flowStripes]
	if hit {
		st.tableHits.Add(1)
	} else {
		act = s.packetIn(key, now)
		st.packetIns.Add(1)
	}
	if act == ActionForward {
		st.forwarded.Add(1)
	} else {
		st.dropped.Add(1)
	}
	s.metrics.Load().observe(act, hit)
	if m := s.monitor.Load(); m != nil {
		m.Observe(pk, act, now)
	}
	return act
}

// packetIn decides a table miss and installs the decision. The install
// is fenced by the table's invalidation epoch: if a device's rule
// changed and its flows were invalidated while the controller decided,
// the decision may rest on the old rule, so it is refused and made
// again. After installRetries refusals the latest decision is returned
// without installing; the flow's next packet asks the controller again.
func (s *Switch) packetIn(key packet.FlowKey, now time.Time) Action {
	var dec Decision
	for i := 0; i < installRetries; i++ {
		epoch := s.table.epoch.Load()
		dec = s.ctrl.PacketIn(key, now)
		if s.beforeInstall != nil {
			s.beforeInstall()
		}
		if s.table.installAt(key, dec.Action, now, epoch) {
			break
		}
	}
	return dec.Action
}

// SetMetrics attaches an instrumentation bundle (nil detaches it).
func (s *Switch) SetMetrics(m *SwitchMetrics) {
	s.metrics.Store(m)
	if m == nil {
		s.table.entries.Store(nil)
		return
	}
	s.table.entries.Store(m.entries)
	m.entries.Set(int64(s.table.Len()))
}

// Stats returns a snapshot of switch counters.
func (s *Switch) Stats() SwitchStats {
	var out SwitchStats
	for i := range s.stats {
		st := &s.stats[i]
		out.Forwarded += st.forwarded.Load()
		out.Dropped += st.dropped.Load()
		out.PacketIns += st.packetIns.Load()
		out.TableHits += st.tableHits.Load()
	}
	return out
}

// InvalidateDevice removes installed flows for a device whose isolation
// level changed, forcing fresh controller decisions.
func (s *Switch) InvalidateDevice(mac packet.MAC) int {
	n := s.table.RemoveByMAC(mac)
	s.metrics.Load().invalidated(n)
	return n
}
