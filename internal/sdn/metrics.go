package sdn

import (
	"iotsentinel/internal/obs"
)

// SwitchMetrics instruments the data plane: per-action packet counters,
// the fast-path/slow-path split and the flow table's size and
// invalidations. Attach via Switch.SetMetrics; a nil bundle disables
// instrumentation.
//
// Exported series:
//
//	sdn_switch_packets_total{action="forward|drop"}  counter
//	sdn_switch_packet_ins_total                      counter
//	sdn_switch_table_hits_total                      counter
//	sdn_flow_table_entries                           gauge
//	sdn_flow_invalidations_total                     counter
//	sdn_flows_invalidated_total                      counter
type SwitchMetrics struct {
	forwarded     *obs.Counter
	dropped       *obs.Counter
	packetIns     *obs.Counter
	tableHits     *obs.Counter
	entries       *obs.Gauge
	invalidations *obs.Counter
	flowsRemoved  *obs.Counter
}

// NewSwitchMetrics registers the switch metric family on reg.
func NewSwitchMetrics(reg *obs.Registry) *SwitchMetrics {
	packets := reg.CounterVec("sdn_switch_packets_total",
		"Packets processed by the switch, by enforcement action.", "action")
	return &SwitchMetrics{
		forwarded: packets.With("forward"),
		dropped:   packets.With("drop"),
		packetIns: reg.Counter("sdn_switch_packet_ins_total",
			"Flow-table misses escalated to the controller."),
		tableHits: reg.Counter("sdn_switch_table_hits_total",
			"Packets switched in the fast path."),
		entries: reg.Gauge("sdn_flow_table_entries",
			"Flows installed in the switch's flow table."),
		invalidations: reg.Counter("sdn_flow_invalidations_total",
			"Device invalidations (a device's rule changed or it left)."),
		flowsRemoved: reg.Counter("sdn_flows_invalidated_total",
			"Flows removed by device invalidations."),
	}
}

// observe records one processed packet. Safe on nil.
func (m *SwitchMetrics) observe(act Action, hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.tableHits.Inc()
	} else {
		m.packetIns.Inc()
	}
	if act == ActionForward {
		m.forwarded.Inc()
	} else {
		m.dropped.Inc()
	}
}

// invalidated records one device invalidation that removed n flows.
// Safe on nil.
func (m *SwitchMetrics) invalidated(n int) {
	if m == nil {
		return
	}
	m.invalidations.Inc()
	m.flowsRemoved.Add(uint64(n))
}
