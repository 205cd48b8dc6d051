package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
)

// span is one traced interval at a layer boundary. IDs are unique
// within a run; Parent is 0 for a root. Req is the device's request ID
// (device index << 16 | join epoch), shared by every span of that
// device.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpansPerRing bounds the in-memory span log of one reader.
const maxSpansPerRing = 200_000

// traceFrame records the layer timings of one traced frame on its
// reader: the packet's root span from its due time to HandlePacket's
// return, with the generator's lateness, the ring injection, the ring
// residency plus decode, and HandlePacket (with the assessment it ran,
// if it closed a capture) as children. The gap between handler entry
// and the HandlePacket call is the harness's own bookkeeping and stays
// unattributed.
func (rr *ringRec) traceFrame(role int, m injMeta, hEntry, hStart, end int64) {
	var aStart, aEnd int64
	if rr.assessStart >= hStart && rr.assessEnd <= end && rr.assessEnd > 0 {
		aStart, aEnd = rr.assessStart, rr.assessEnd
	}
	rr.assessStart, rr.assessEnd = 0, 0
	self := float64(end-hStart-(aEnd-aStart)) / 1e3
	rr.handle[role] = append(rr.handle[role], self)
	injEnd := m.injEnd
	if injEnd > hEntry {
		injEnd = hEntry // the reader had the frame before Inject returned
	}
	rr.wait = append(rr.wait, float64(hEntry-injEnd)/1e3)
	if !m.span {
		return
	}
	if len(rr.spans)+6 > maxSpansPerRing {
		rr.spanDrops++
		return
	}
	id := func() uint64 {
		rr.spanSeq++
		return uint64(rr.idx)<<40 | rr.spanSeq
	}
	root := id()
	rr.spans = append(rr.spans,
		span{Name: "pkt", Req: m.req, ID: root, Start: m.due, End: end},
		span{Name: "gen.late", Req: m.req, ID: id(), Parent: root, Start: m.due, End: max(m.due, m.injStart)},
		span{Name: "capture.inject", Req: m.req, ID: id(), Parent: root, Start: m.injStart, End: injEnd},
		span{Name: "capture.wait", Req: m.req, ID: id(), Parent: root, Start: injEnd, End: hEntry})
	h := id()
	rr.spans = append(rr.spans, span{Name: "gateway.handle." + roleNames[role], Req: m.req, ID: h, Parent: root, Start: hStart, End: end})
	if aEnd > 0 {
		rr.spans = append(rr.spans, span{Name: "iotssp.assess", Req: m.req, ID: id(), Parent: h, Start: aStart, End: aEnd})
	}
}

// traceSummary is what the traced run derives from its spans.
type traceSummary struct {
	spans        int
	dropped      uint64
	packets      int                // root packet spans
	selfUs       map[string]float64 // mean self time per packet, by layer
	unattributed float64            // root time covered by no child / root time
}

// layerOf maps a span name to the layer its self time is charged to.
func layerOf(name string) string {
	switch {
	case name == "gen.late":
		return "gen"
	case strings.HasPrefix(name, "gateway."):
		return "gateway"
	case name == "capture.inject":
		return "capture_inject"
	case name == "capture.wait":
		return "capture_wait"
	case name == "iotssp.assess":
		return "iotssp"
	}
	return ""
}

// summarize derives per-layer self times: a span's self time is its
// duration minus the part its children cover.
func summarize(all []span, dropped uint64) traceSummary {
	child := make(map[uint64]int64, len(all))
	for _, s := range all {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	sum := traceSummary{spans: len(all), dropped: dropped, selfUs: make(map[string]float64)}
	var rootNs, unNs int64
	for _, s := range all {
		self := s.End - s.Start - child[s.ID]
		if s.Name == "pkt" {
			sum.packets++
			rootNs += s.End - s.Start
			unNs += self
			continue
		}
		if l := layerOf(s.Name); l != "" {
			sum.selfUs[l] += float64(self) / 1e3
		}
	}
	if sum.packets > 0 {
		for l := range sum.selfUs {
			sum.selfUs[l] /= float64(sum.packets)
		}
	}
	if rootNs > 0 {
		sum.unattributed = float64(unNs) / float64(rootNs)
	}
	return sum
}

// writeSpans writes one JSON object per line, times relative to origin.
func writeSpans(path string, all []span, origin int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range all {
		s.Start -= origin
		s.End -= origin
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
