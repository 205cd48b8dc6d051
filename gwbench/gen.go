package main

import (
	"container/heap"
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

type evKind uint8

const (
	evFrame    evKind = iota // next frame of a join script
	evJoin                   // a new device arrives
	evLeave                  // churn: a resident leaves
	evFirmware               // churn: a resident re-fingerprints after a firmware update
	evRejoin                 // churn: a departed resident returns
	evHeldOut                // churn: a device of a held-out type arrives
)

// event is one scheduled generator action; at is schedule time in
// seconds from the start of the open-loop phase.
type event struct {
	at   float64
	kind evKind
	dev  *device
	k    int     // frame index within the join script
	s0   float64 // join script start
}

type evHeap []event

func (h evHeap) Len() int           { return len(h) }
func (h evHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h evHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *evHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *evHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// queue is a FIFO of devices.
type queue struct {
	q    []*device
	head int
}

func (q *queue) push(d *device) { q.q = append(q.q, d) }
func (q *queue) len() int       { return len(q.q) - q.head }
func (q *queue) pop() *device {
	d := q.q[q.head]
	q.q[q.head] = nil
	q.head++
	if q.head > 4096 && q.head*2 > len(q.q) {
		q.q = append(q.q[:0], q.q[q.head:]...)
		q.head = 0
	}
	return d
}

// generator is the single load goroutine: it merges the steady stream,
// join scripts and churn processes in schedule order and injects each
// frame into the capture fanout at its due time (open loop), or as fast
// as the lossless rings accept (saturation).
type generator struct {
	b   *bench
	w   *workload
	rng *rand.Rand
	h   evHeap

	steady []*device // steady-stream members, in round-robin order
	stI    int
	stNext float64
	stGap  float64

	pool    []*device // join supply (join-storm, steady-enforce)
	poolI   int
	evict   queue // joined devices, oldest first
	heldOut []*device
	hoI     int
	hoQ     queue
	wraps   int // pool wrap-arounds (re-used devices)

	injected uint64
	removals uint64

	// Traced windows only.
	late, injDur, remove []float64 // µs
}

func newGenerator(b *bench) *generator {
	g := &generator{b: b, w: b.w, rng: rand.New(rand.NewSource(b.o.seed ^ 0x2545f491))}
	g.steady = append([]*device(nil), b.residents...)
	g.rng.Shuffle(len(g.steady), func(i, j int) { g.steady[i], g.steady[j] = g.steady[j], g.steady[i] })
	if b.w.steadyPPS > 0 && len(g.steady) > 0 {
		g.stGap = 1 / b.w.steadyPPS
	}
	g.pool = b.pool
	g.heldOut = b.heldOut
	if b.w.evictResidents {
		for _, d := range b.residents {
			g.evict.push(d)
		}
	}
	g.arm(evJoin, 0, b.w.joinRate)
	g.arm(evLeave, 0, b.w.leaveRate)
	g.arm(evFirmware, 0, b.w.firmwareRate)
	g.arm(evHeldOut, 0, b.w.heldOutRate)
	return g
}

// arm schedules the next arrival of a Poisson process.
func (g *generator) arm(k evKind, now, rate float64) {
	if rate > 0 {
		heap.Push(&g.h, event{at: now + g.rng.ExpFloat64()/rate, kind: k})
	}
}

// run drives the open-loop phase for tOpen schedule seconds, then the
// saturation phase for tSat wall seconds.
func (g *generator) run(tOpen, tSat float64) {
	g.b.openSteal.start()
	pinGenerator() // released when the saturation phase starts
	rec := g.b.rec
	sat := false
	var satStart time.Time
	for n := 0; ; n++ {
		at := g.nextAt()
		if !sat && at >= tOpen {
			sat = true
			g.b.markCPU(2)
			for len(g.b.openSteal.shares) < rec.nwin {
				g.b.openSteal.cut()
			}
			g.b.satSteal.start()
			// Closed loop: the generator blocks on full rings, and a
			// thread-locked goroutine pays a thread handoff per block.
			runtime.UnlockOSThread()
			rec.tracing.Store(false)
			satStart = time.Now()
			rec.satWall.Store(satStart.UnixNano())
		}
		if sat {
			if n&255 == 0 {
				el := time.Since(satStart).Seconds()
				for len(g.b.satSteal.shares) < min(int(el/rec.satLen), rec.nsat) {
					g.b.satSteal.cut()
				}
				if el >= tSat {
					return
				}
			}
		} else {
			g.b.crossed(at)
			g.waitUntil(rec.wallOf(at))
		}
		g.step(at)
	}
}

// nextAt is the schedule time of the next action.
func (g *generator) nextAt() float64 {
	at := 1e18
	if g.stGap > 0 {
		at = g.stNext
	}
	if len(g.h) > 0 && g.h[0].at < at {
		at = g.h[0].at
	}
	return at
}

// waitUntil sleeps until the wall-clock due time. Go's timers wake at
// millisecond granularity on an idle process, so the last stretch is a
// nanosleep on the generator's own thread with a 1ns timer slack.
//
// It never calls Fanout.Flush: Ring.Flush publishes the producer's
// current block even when the ring is full and that block is the
// consumer's, which reorders frames. Inject publishes a partial block
// itself whenever a reader is parked, so an open-loop producer needs no
// flush.
func (g *generator) waitUntil(due int64) {
	ahead := time.Duration(due - time.Now().UnixNano())
	if ahead > 2*time.Millisecond {
		time.Sleep(ahead - time.Millisecond)
		ahead = time.Duration(due - time.Now().UnixNano())
	}
	if ahead > 2*time.Microsecond {
		ts := syscall.NsecToTimespec(int64(ahead))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
	}
}

// pinGenerator gives the calling goroutine its own thread with a 1ns
// timer slack, so nanosleep wakes it on time.
func pinGenerator() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: the default slack is 50µs
}

// step performs the next action.
func (g *generator) step(at float64) {
	if g.stGap > 0 && (len(g.h) == 0 || g.stNext <= g.h[0].at) {
		g.steadyFrame(at)
		g.stNext += g.stGap
		return
	}
	e := heap.Pop(&g.h).(event)
	switch e.kind {
	case evFrame:
		g.scriptFrame(e)
	case evJoin:
		if d := g.nextPooled(); d != nil {
			g.join(d, at, &g.evict, g.w.joinCap)
		}
		g.arm(evJoin, at, g.w.joinRate)
	case evHeldOut:
		if len(g.heldOut) > 0 {
			d := g.heldOut[g.hoI%len(g.heldOut)]
			g.hoI++
			g.join(d, at, &g.hoQ, g.w.heldOutCap)
		}
		g.arm(evHeldOut, at, g.w.heldOutRate)
	case evLeave, evFirmware:
		if d := g.pickResident(); d != nil {
			g.removeDevice(d)
			d.away = true
			if e.kind == evLeave {
				heap.Push(&g.h, event{at: at + g.w.absence.Seconds()/g.w.mult, kind: evRejoin, dev: d})
			} else {
				g.startScript(d, at+time.Second.Seconds()/g.w.mult)
			}
		}
		rate := g.w.leaveRate
		if e.kind == evFirmware {
			rate = g.w.firmwareRate
		}
		g.arm(e.kind, at, rate)
	case evRejoin:
		g.startScript(e.dev, at)
	}
}

// nextPooled hands out the next fresh device, wrapping around to the
// oldest (long evicted) ones when the pool runs out.
func (g *generator) nextPooled() *device {
	if len(g.pool) == 0 {
		return nil
	}
	if g.poolI == len(g.pool) {
		g.poolI = 0
		g.wraps++
	}
	d := g.pool[g.poolI]
	g.poolI++
	return d
}

// join starts a device's setup script and evicts the oldest joined
// device beyond the cap, as the gateway does when a device leaves.
func (g *generator) join(d *device, at float64, q *queue, limit int) {
	g.startScript(d, at)
	q.push(d)
	for limit > 0 && q.len() > limit {
		old := q.pop()
		if old.inFlight {
			// The cap is too small for the join rate: the device would
			// rejoin mid-capture with a truncated fingerprint.
			g.b.fail("%v evicted while its join was in flight", old.mac)
		}
		g.removeDevice(old)
	}
}

// pickResident draws a present steady-stream member.
func (g *generator) pickResident() *device {
	for tries := 0; tries < 64 && len(g.steady) > 0; tries++ {
		if d := g.steady[g.rng.Intn(len(g.steady))]; !d.away {
			return d
		}
	}
	return nil
}

// removeDevice removes a device from the gateway. The call is the
// gateway's work, not the load's, so its CPU time on the generator's
// thread is added back to the gateway's (see bench.gwCPU); the reading
// is the thread's own only while the generator is pinned, which covers
// the open loop the CPU marks span.
func (g *generator) removeDevice(d *device) {
	t0 := g.b.hooks.clock()
	c0 := threadCPU()
	g.b.st.gw.RemoveDevice(d.mac)
	g.b.removeCPU += threadCPU() - c0
	g.removals++
	if !t0.IsZero() {
		g.remove = append(g.remove, float64(time.Since(t0).Nanoseconds())/1e3)
	}
}

// startScript schedules the device's join: its setup frames at their
// captured offsets, then, one idle gap after the last, the post-setup
// burst whose first frame closes the capture.
func (g *generator) startScript(d *device, at float64) {
	d.epoch++
	d.reqID.Store(uint64(d.idx)<<16 | uint64(d.epoch&0xffff))
	d.closeDue.Store(0)
	d.inFlight = true
	heap.Push(&g.h, event{at: at, kind: evFrame, dev: d, k: 0, s0: at})
}

// scriptAt is the schedule time of frame k of a join script started at s0.
func (g *generator) scriptAt(d *device, s0 float64, k int) float64 {
	if k < len(d.setup) {
		return s0 + d.setup[k].off.Seconds()/g.w.mult
	}
	j := time.Duration(k - len(d.setup))
	return s0 + (d.setupDur()+idleGap+j*burstGap).Seconds()/g.w.mult
}

func (g *generator) scriptFrame(e event) {
	d, k := e.dev, e.k
	ns := len(d.setup)
	switch {
	case k < ns:
		g.inject(d, d.setup[k].data, e.at, roleSetup)
	case k == ns:
		d.closeDue.Store(g.b.rec.wallOf(e.at))
		g.inject(d, d.traffic[0].data, e.at, roleClose)
	default:
		g.inject(d, d.traffic[k-ns].data, e.at, roleEnforced)
	}
	if k+1 < ns+burstLen {
		heap.Push(&g.h, event{at: g.scriptAt(d, e.s0, k+1), kind: evFrame, dev: d, k: k + 1, s0: e.s0})
		return
	}
	// Joined and enforced: a steady-stream member resumes its traffic.
	d.next = burstLen % len(d.traffic)
	d.away = false
	d.inFlight = false
}

// steadyFrame sends the next traffic frame of the next present member.
func (g *generator) steadyFrame(at float64) {
	for tries := 0; tries < len(g.steady); tries++ {
		d := g.steady[g.stI]
		g.stI++
		if g.stI == len(g.steady) {
			g.stI = 0
		}
		if d.away {
			continue
		}
		g.inject(d, d.traffic[d.next].data, at, roleEnforced)
		d.next++
		if d.next == len(d.traffic) {
			d.next = 0
		}
		return
	}
}

// inject hands one frame to the capture fanout, stamped with its due
// time and role. In traced windows the injection is timed and its
// record goes on the reader's FIFO.
func (g *generator) inject(d *device, data []byte, at float64, role int) {
	rec := g.b.rec
	g.injected++
	if !rec.tracing.Load() {
		if err := g.b.fanout.Inject(rec.virtualTS(at, role), data); err != nil {
			g.b.fail("inject: %v", err)
		}
		return
	}
	due := rec.wallOf(at)
	t0 := time.Now()
	err := g.b.fanout.Inject(rec.virtualTS(at, role+tagTraced), data)
	t1 := time.Now()
	if err != nil {
		g.b.fail("inject: %v", err)
	}
	rec.ringOf(d.mac).fifo.push(injMeta{due: due, injStart: t0.UnixNano(), injEnd: t1.UnixNano(), req: d.reqID.Load(), span: d.traced})
	g.late = append(g.late, float64(t0.UnixNano()-due)/1e3)
	g.injDur = append(g.injDur, float64(t1.Sub(t0).Nanoseconds())/1e3)
}
