package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"iotsentinel/internal/gateway"
	"iotsentinel/internal/packet"
)

// Frame roles, carried in the nanosecond digits of each frame's
// timestamp (due times are whole microseconds): role + 10 when the
// frame is traced.
const (
	roleSetup    = 1 // captured by a monitored device's setup capture
	roleClose    = 2 // the first post-gap frame: closes the capture
	roleEnforced = 3 // handled by the switch under the device's rule
	tagTraced    = 10
)

var roleNames = [...]string{roleSetup: "setup", roleClose: "close", roleEnforced: "enforced"}

// injMeta is the generator's record of one traced frame, handed to the
// reader through its ring's FIFO (rings deliver in injection order).
type injMeta struct {
	due, injStart, injEnd int64 // unix ns
	req                   uint64
	span                  bool // the device is sampled for spans
}

// fifo is a single-producer single-consumer queue of injMeta.
type fifo struct {
	mu   sync.Mutex
	q    []injMeta
	head int
}

func (f *fifo) push(m injMeta) {
	f.mu.Lock()
	f.q = append(f.q, m)
	f.mu.Unlock()
}

// pop returns the oldest record. The reader can receive a frame before
// the generator, back from Inject, has pushed its record; pop waits for
// it then.
func (f *fifo) pop() injMeta {
	for {
		f.mu.Lock()
		if f.head < len(f.q) {
			m := f.q[f.head]
			f.head++
			if f.head == len(f.q) {
				f.q, f.head = f.q[:0], 0
			}
			f.mu.Unlock()
			return m
		}
		f.mu.Unlock()
		runtime.Gosched()
	}
}

// ringRec is what one capture reader records. Each ring has exactly one
// reader goroutine, so only the FIFO needs a lock.
type ringRec struct {
	idx     uint32
	lat     [][]uint32 // per open-loop window: due → HandlePacket return, ns
	sat     []uint64   // per saturation window: packets handled
	handled atomic.Uint64
	lastAt  atomic.Int64 // schedule ns of the latest frame handled
	errs    uint64
	fifo    fifo

	// Traced windows only.
	goid        atomic.Int64
	assessStart int64 // set by the probe when it runs on this reader
	assessEnd   int64
	handle      [4][]float64 // HandlePacket µs by role (close: self time)
	wait        []float64    // inject return → handler entry µs
	spans       []span
	spanSeq     uint64
	spanDrops   uint64
}

// enforceSample is one capture close: due time of the closing frame
// (schedule seconds) and the time until the device's hook fired.
type enforceSample struct {
	at  float64
	lat time.Duration
}

// recorder holds every measurement of one run.
type recorder struct {
	mult    float64 // virtual clock multiple
	vOrigin int64   // virtual unix ns at schedule time 0
	wOrigin int64   // wall unix ns at schedule time 0
	winLen  float64 // open-loop window, seconds
	nwin    int
	first   int // first window after the warm-up
	// traceStart is the first traced window (nwin on an untraced run).
	traceStart int
	satLen     float64 // saturation window, seconds
	nsat       int
	satWall    atomic.Int64 // wall unix ns the saturation phase began (0 before)
	tracing    atomic.Bool  // set while traced windows run

	rings []*ringRec
	mask  uint32

	mu       sync.Mutex
	enforce  []enforceSample
	named    map[string][]float64 // µs, traced windows only
	spans    []span               // spans not recorded on a reader
	spanSeq  uint64               // enforce spans take IDs 1<<63 | spanSeq
	unpaired uint64               // hooks with no close pending: retry promotions, sweep closes
}

func newRecorder(readers int) *recorder {
	n := 1
	for n < readers {
		n <<= 1
	}
	r := &recorder{rings: make([]*ringRec, n), mask: uint32(n - 1), named: make(map[string][]float64)}
	for i := range r.rings {
		r.rings[i] = &ringRec{idx: uint32(i)}
	}
	return r
}

func (r *recorder) setWindows(nwin int, winLen float64, nsat int, satLen float64) {
	r.nwin, r.winLen, r.nsat, r.satLen = nwin, winLen, nsat, satLen
	for _, rr := range r.rings {
		rr.lat = make([][]uint32, nwin)
		rr.sat = make([]uint64, nsat)
	}
}

// ringOf mirrors capture.Fanout's stripe: FNV-1a over the source MAC.
func (r *recorder) ringOf(mac packet.MAC) *ringRec {
	h := uint32(2166136261)
	for _, b := range mac {
		h ^= uint32(b)
		h *= 16777619
	}
	return r.rings[h&r.mask]
}

// virtualTS is the frame timestamp for schedule time at, with the tag
// in its nanosecond digits.
func (r *recorder) virtualTS(at float64, tag int) time.Time {
	v := r.vOrigin + int64(at*r.mult*1e6)*1000
	return time.Unix(0, v+int64(tag)).UTC()
}

// schedOf recovers a frame's schedule time and tag from its timestamp.
func (r *recorder) schedOf(ts time.Time) (float64, int) {
	v := ts.UnixNano()
	tag := int(v % 1000)
	return float64(v-int64(tag)-r.vOrigin) / 1e9 / r.mult, tag
}

// wallOf converts schedule seconds to wall unix ns.
func (r *recorder) wallOf(at float64) int64 { return r.wOrigin + int64(at*1e9) }

// handledAt is the schedule time the data path has reached: the
// earliest of the readers' latest handled frames. Housekeeping runs on
// it, so a sweep never sees a capture idle whose next frame still sits
// in a ring.
func (r *recorder) handledAt() float64 {
	at := int64(math.MaxInt64)
	for _, rr := range r.rings {
		at = min(at, rr.lastAt.Load())
	}
	return float64(at) / 1e9
}

// handled is the number of frames the readers have handled.
func (r *recorder) handled() uint64 {
	var n uint64
	for _, rr := range r.rings {
		n += rr.handled.Load()
	}
	return n
}

// window returns the open-loop window of schedule time at, or -1.
func (r *recorder) window(at float64) int {
	w := int(at / r.winLen)
	if at < 0 || w >= r.nwin {
		return -1
	}
	return w
}

// measured reports whether window w counts toward the latencies:
// windows before first warm up, and from traceStart on a traced run
// traces.
func (r *recorder) measured(w int) bool { return w >= r.first && w < r.traceStart }

// hooks are the gateway and assessor callbacks of one stack.
type hooks struct {
	rec   *recorder
	byMAC map[packet.MAC]*device
	on    atomic.Bool // record enforce samples (off during set-up)
}

// clock returns the time when the run is tracing, else zero.
func (h *hooks) clock() time.Time {
	if h.rec.tracing.Load() {
		return time.Now()
	}
	return time.Time{}
}

// timeSince records a named duration started by clock.
func (h *hooks) timeSince(name string, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	d := float64(time.Since(t0).Nanoseconds()) / 1e3
	h.rec.mu.Lock()
	h.rec.named[name] = append(h.rec.named[name], d)
	h.rec.mu.Unlock()
}

// assessDone records an Assess call. On a capture reader it also
// leaves the interval for the handler, which makes it the child span of
// the packet that closed the capture.
func (h *hooks) assessDone(t0 time.Time) {
	if t0.IsZero() {
		return
	}
	end := time.Now()
	h.timeSince("iotssp.assess", t0)
	g := goid()
	for _, rr := range h.rec.rings {
		if rr.goid.Load() == g {
			rr.assessStart, rr.assessEnd = t0.UnixNano(), end.UnixNano()
			return
		}
	}
}

func (h *hooks) onAssessed(d gateway.DeviceInfo)             { h.enforced(d.MAC) }
func (h *hooks) onQuarantined(d gateway.DeviceInfo, _ error) { h.enforced(d.MAC) }

// enforced closes the device's pending setup → enforcement interval.
func (h *hooks) enforced(mac packet.MAC) {
	if !h.on.Load() {
		return
	}
	now := time.Now().UnixNano()
	dev := h.byMAC[mac]
	if dev == nil {
		return
	}
	due := dev.closeDue.Swap(0)
	r := h.rec
	if due == 0 {
		r.mu.Lock()
		r.unpaired++
		r.mu.Unlock()
		return
	}
	at := float64(due-r.wOrigin) / 1e9
	w := r.window(at)
	r.mu.Lock()
	defer r.mu.Unlock()
	if w >= 0 && r.measured(w) {
		r.enforce = append(r.enforce, enforceSample{at: at, lat: time.Duration(now - due)})
	}
	if dev.traced && r.tracing.Load() {
		r.spanSeq++
		r.spans = append(r.spans, span{Name: "enforce", Req: dev.reqID.Load(), ID: 1<<63 | r.spanSeq, Start: due, End: now})
	}
}

// goid returns the current goroutine's ID (traced runs only: it parses
// a stack header).
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	b := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		id, _ := strconv.ParseInt(string(b[:i]), 10, 64)
		return id
	}
	return -1
}

// quantile returns the q-quantile of xs by nearest rank (xs is sorted
// in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling thread's CPU time. The generator runs on a
// locked thread, so sampled from the generator it is the generator's
// own CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// hostSteal reads the host's cumulative CPU ticks and the share stolen
// by other guests (from /proc/stat; zeros where unavailable).
func hostSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	// "cpu user nice system idle iowait irq softirq steal guest ...":
	// guest time is already counted in user and nice.
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter cuts the host's steal share into consecutive windows.
type stealMeter struct {
	steal, total   uint64
	steal0, total0 uint64
	shares         []float64
}

func (m *stealMeter) start() {
	m.steal, m.total = hostSteal()
	m.steal0, m.total0 = m.steal, m.total
}

// cut closes the current window.
func (m *stealMeter) cut() {
	s, t := hostSteal()
	m.shares = append(m.shares, ratio(s-m.steal, t-m.total))
	m.steal, m.total = s, t
}

// maxSteal is the share of CPU time other guests may steal in a window
// (or the one before it, whose backlog spills over) for the window to
// count toward the wall-clock metrics.
const maxSteal = 0.08

// clean reports whether window w and the one before it stayed under
// maxSteal.
func (m *stealMeter) clean(w int) bool {
	for _, i := range []int{w - 1, w} {
		if i >= 0 && i < len(m.shares) && m.shares[i] > maxSteal {
			return false
		}
	}
	return true
}

// residentMB is the process's current resident set in MiB (0 where
// /proc/self/statm is unavailable).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

// goStats samples the runtime counters the go.* metrics difference.
type goStats struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goStats{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}
