package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"iotsentinel/internal/capture"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/packet"
)

// workload is one named traffic mix. Rates are per second of schedule
// time, which is wall time in the open-loop phase.
type workload struct {
	name string
	mult float64 // virtual clock multiple: virtual seconds per wall second

	residents      int     // pre-assessed devices
	trafficLen     int     // traffic frames each device cycles through (>= burstLen)
	warmup         float64 // open-loop seconds before measuring; covers a join script
	steadyPPS      float64 // steady stream over the residents
	evictResidents bool    // residents are the oldest joined devices (join-storm)
	joinRate       float64 // new devices per second
	joinCap        int     // joined devices kept; each arrival beyond evicts the oldest

	leaveRate    float64       // churn: residents leaving (and rejoining) per second
	firmwareRate float64       // churn: residents re-fingerprinting per second
	absence      time.Duration // churn: virtual time a leaving resident stays away
	heldOutRate  float64       // churn: held-out-type arrivals per second
	heldOutCap   int
	flaky        bool          // churn: a seeded share of Assess calls fails
	durable      bool          // churn: state dir, learner and fleet session
	checkpoint   time.Duration // churn: virtual checkpoint period
	checkTypes   bool          // every device's type and level equals a direct Assess
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json names
// them. The package doc's Calibration section explains the offered
// rates.
var workloads = map[string]*workload{
	"join-storm": {
		name: "join-storm", mult: 250, trafficLen: 4, warmup: 0.5,
		residents: 1000, evictResidents: true, joinRate: 1200, joinCap: 1000,
		checkTypes: true,
	},
	"steady-enforce": {
		name: "steady-enforce", mult: 20, trafficLen: 8, warmup: 2,
		residents: 5000, steadyPPS: 80000, joinRate: 50, joinCap: 150,
		checkTypes: true,
	},
	"churn": {
		name: "churn", mult: 12, trafficLen: 4, warmup: 2.5,
		residents: 10000, steadyPPS: 40000,
		leaveRate: 40, firmwareRate: 40, absence: 60 * time.Second,
		heldOutRate: 2, heldOutCap: 100,
		flaky: true, durable: true, checkpoint: 20 * time.Second,
	},
}

// maxPool bounds the devices generated for arrivals; beyond it the
// generator re-uses the oldest, long evicted ones.
const maxPool = 16000

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 3

// Phase split of --seconds: the open-loop phase, in windows of which
// the first warms up, then the closed-loop saturation phase, whose
// first window drains the open loop.
const (
	openShare = 0.7
	openWin   = 1.0 // seconds
	satWin    = 1.0 // seconds
)

// buildDir holds build outputs, the churn state dir and span files.
const buildDir = ".bench_build"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gwbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gwbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: join-storm, steady-enforce or churn")
	fs.Int64Var(&o.seed, "seed", 1, "seed for training data, devices and schedules")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds (open loop, then saturation)")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	w := workloads[o.workload]
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	res, err := runBench(w, o, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run: the stack under test, its inputs and measurements.
type bench struct {
	w     *workload
	o     options
	out   io.Writer
	rec   *recorder
	hooks *hooks
	st    *stack

	residents, pool, heldOut []*device
	all                      []*device

	fanout *capture.Fanout
	pump   *capture.Pump

	errMu sync.Mutex
	errs  []string

	marks  [3]bool
	cpu    [3]time.Duration // process CPU
	gencpu [3]time.Duration // generator thread CPU
	remcpu [3]time.Duration // removeCPU
	gostat [3]goStats

	removeCPU time.Duration // generator thread CPU spent in RemoveDevice
	ctr       [2]counters   // stack counters before the load and after the drain
	rssMax    float64       // MiB, the largest resident set sampled during the load

	hk  hkStats
	gen *generator

	openSteal, satSteal stealMeter
}

// hkStats is what the housekeeping goroutine measured.
type hkStats struct {
	expire, finalize, retry, checkpoint []float64 // ms per call
	flows                               []float64
	journalMax                          int64
	expired, finalized, promoted        int
}

func (b *bench) fail(format string, a ...any) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if len(b.errs) < 20 {
		b.errs = append(b.errs, fmt.Sprintf(format, a...))
	}
}

// markCPU samples CPU time and runtime counters at a phase boundary:
// 0 = warm-up end, 1 = traced windows start, 2 = open loop end. It runs
// on the generator's locked thread.
func (b *bench) markCPU(i int) {
	if b.marks[i] {
		return
	}
	b.marks[i] = true
	b.cpu[i] = cpuTime()
	b.gencpu[i] = threadCPU()
	b.remcpu[i] = b.removeCPU
	b.gostat[i] = readGoStats()
}

// gwCPU is the process CPU time between two marks less the generator's
// own: its thread's CPU time less what RemoveDevice spent on it.
func (b *bench) gwCPU(from, to int) time.Duration {
	gen := (b.gencpu[to] - b.gencpu[from]) - (b.remcpu[to] - b.remcpu[from])
	return (b.cpu[to] - b.cpu[from]) - gen
}

// crossed notes window boundaries as the schedule reaches them.
func (b *bench) crossed(at float64) {
	w := int(at / b.rec.winLen)
	for len(b.openSteal.shares) < min(w, b.rec.nwin) {
		b.openSteal.cut()
	}
	if w >= b.rec.first {
		b.markCPU(0)
	}
	if w >= b.rec.traceStart {
		b.markCPU(1)
		if !b.rec.tracing.Load() {
			b.rec.tracing.Store(true)
		}
	}
}

func runBench(w *workload, o options, out io.Writer) (*result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "gwbench: workload %s seed %d seconds %g trace %v\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "env: NumCPU %d GOMAXPROCS %d %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(out, "offered: clock multiple %gx, %d residents, steady %g pkt/s, joins %g/s, leaves %g/s, firmware %g/s, held-out %g/s\n",
		w.mult, w.residents, w.steadyPPS, w.joinRate, w.leaveRate, w.firmwareRate, w.heldOutRate)

	tOpen := o.seconds * openShare
	tSat := o.seconds - tOpen

	// Set up several times; the last set-up is the one measured. Set-up
	// is CPU-bound, so its wall time is taken per unit of the CPU time
	// the host gave the guest.
	var setups, stolen []float64
	var b *bench
	for i := 0; i < setupRounds; i++ {
		if b != nil {
			b.st.close()
			b = nil
			runtime.GC()
		}
		t0 := time.Now()
		steal0, total0 := hostSteal()
		var err error
		b, err = setup(w, o, out, tOpen, tSat, i)
		if err != nil {
			return nil, err
		}
		steal1, total1 := hostSteal()
		wall := time.Since(t0).Seconds()
		stolen = append(stolen, ratio(steal1-steal0, total1-total0))
		setups = append(setups, wall*(1-stolen[i]))
	}
	defer b.st.close()
	// The earlier set-ups' garbage would otherwise stay resident and set
	// the peak; rss_mb is the peak while the load runs.
	debug.FreeOSMemory()
	fmt.Fprintf(out, "setup: %d rounds %v s of host CPU time (%v stolen)\n", len(setups), fmtList(setups), fmtList(stolen))

	steal0, total0 := hostSteal()
	b.measure(tOpen, tSat)
	steal1, total1 := hostSteal()
	fmt.Fprintf(out, "host: %.2f%% of CPU time stolen by other guests while measuring\n", 100*ratio(steal1-steal0, total1-total0))
	return b.report(setups), nil
}

// setup trains the bank, generates every device and pre-assesses the
// residents through the gateway.
func setup(w *workload, o options, out io.Writer, tOpen, tSat float64, round int) (*bench, error) {
	b := &bench{w: w, o: o, out: out}
	readers := runtime.GOMAXPROCS(0)
	b.rec = newRecorder(readers)
	b.rec.mult = w.mult
	b.rec.vOrigin = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	nOpen, nSat := max(int(math.Round(tOpen/openWin)), 3), max(int(math.Round(tSat/satWin)), 2)
	b.rec.setWindows(nOpen, tOpen/float64(nOpen), nSat, tSat/float64(nSat))
	// A traced run measures latency untraced in the first half of the
	// windows after the warm-up and traces the second half.
	b.rec.first = int(math.Ceil(w.warmup / b.rec.winLen))
	b.rec.traceStart = nOpen
	if o.trace {
		b.rec.traceStart = b.rec.first + (nOpen-b.rec.first)/2
	}
	if b.rec.first+2 > nOpen {
		return nil, fmt.Errorf("--seconds %g leaves too few windows after the %gs warm-up", o.seconds, w.warmup)
	}

	catalog := devices.Catalog()
	known := catalog
	var heldOut []*devices.Profile
	exclude := map[string]bool{}
	if w.heldOutRate > 0 {
		known, heldOut = catalog[:len(catalog)-heldOutProfiles], catalog[len(catalog)-heldOutProfiles:]
		for _, p := range heldOut {
			exclude[p.ID] = true
		}
	}
	id, err := trainBank(o.seed, exclude)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}

	// Devices: residents, the join pool and the held-out arrivals.
	seen := make(map[packet.MAC]bool)
	ar := &arena{}
	if b.residents, err = makeDevices(ar, known, w.residents, w.trafficLen, o.seed, 0, true, seen); err != nil {
		return nil, err
	}
	nPool := min(int(w.joinRate*(tOpen+tSat))+w.joinCap, maxPool)
	if w.joinRate > 0 {
		if b.pool, err = makeDevices(ar, known, nPool, w.trafficLen, o.seed, len(b.residents), true, seen); err != nil {
			return nil, err
		}
	}
	if len(heldOut) > 0 {
		n := min(int(w.heldOutRate*(tOpen+tSat))+w.heldOutCap, maxPool)
		if b.heldOut, err = makeDevices(ar, heldOut, n, w.trafficLen, o.seed, len(b.residents)+len(b.pool), false, seen); err != nil {
			return nil, err
		}
	}
	b.all = append(append(append([]*device(nil), b.residents...), b.pool...), b.heldOut...)
	b.hooks = &hooks{rec: b.rec, byMAC: make(map[packet.MAC]*device, len(b.all))}
	for _, d := range b.all {
		if b.hooks.byMAC[d.mac] != nil {
			return nil, fmt.Errorf("duplicate device MAC %v", d.mac)
		}
		b.hooks.byMAC[d.mac] = d
	}
	if err := b.checkFlowRevisit(); err != nil {
		return nil, err
	}

	dir := ""
	if w.durable {
		dir = filepath.Join(buildDir, fmt.Sprintf("state-%d-%d", os.Getpid(), round))
		_ = os.RemoveAll(dir)
	}
	if b.st, err = buildStack(id, w, o.seed, dir, b.hooks); err != nil {
		return nil, err
	}
	if err := b.preassess(); err != nil {
		b.st.close()
		return nil, err
	}
	return b, nil
}

// checkFlowRevisit refuses a steady mix whose flows would idle out
// between visits: the steady stream must keep every flow within the
// switch idle timeout so the table stays stationary.
func (b *bench) checkFlowRevisit() error {
	if b.w.steadyPPS <= 0 {
		return nil
	}
	revisit := time.Duration(float64(b.w.trafficLen*len(b.residents)) / b.w.steadyPPS * b.w.mult * float64(time.Second))
	if revisit > switchIdle*3/4 {
		return fmt.Errorf("%s: a flow is revisited every %v of virtual time, beyond 3/4 of the %v idle timeout", b.w.name, revisit, switchIdle)
	}
	return nil
}

// preassess replays every resident's setup capture straight into the
// gateway and assesses them as one batch, as gatewayd's replay does.
func (b *bench) preassess() error {
	base := time.Unix(0, b.rec.vOrigin).UTC().Add(-10 * time.Minute)
	for _, d := range b.residents {
		for _, f := range d.setup {
			pk, err := packet.Decode(f.data)
			if err != nil {
				return fmt.Errorf("pre-assess decode: %w", err)
			}
			if _, err := b.st.gw.HandlePacket(base.Add(f.off), pk); err != nil {
				return fmt.Errorf("pre-assess: %w", err)
			}
		}
	}
	n, err := b.st.gw.FinishAllSetups(base.Add(5 * time.Minute))
	if err != nil {
		return err
	}
	if n != len(b.residents) {
		return fmt.Errorf("pre-assessed %d of %d residents", n, len(b.residents))
	}
	return nil
}

// measure runs the open-loop phase and the saturation phase through the
// capture fanout, with housekeeping on the virtual clock beside it.
func (b *bench) measure(tOpen, tSat float64) {
	b.fanout = capture.NewFanout(len(b.rec.rings), capture.RingConfig{Lossless: true})
	b.pump = capture.Attach(b.fanout, b.handle, capture.PumpConfig{})
	b.st.probe.flaky.Store(b.w.flaky)
	b.hooks.on.Store(true)
	g := newGenerator(b)
	b.drainFleet()
	b.ctr[0] = b.st.counters()
	b.rssMax = residentMB()

	stop := make(chan struct{})
	hkDone := make(chan struct{})
	b.rec.wOrigin = time.Now().Add(20 * time.Millisecond).UnixNano()
	go b.housekeeping(stop, hkDone)
	g.run(tOpen, tSat)
	close(stop)
	<-hkDone
	b.quiesce()
	b.rssMax = max(b.rssMax, residentMB())
	if err := b.pump.Close(); err != nil {
		b.fail("pump: %v", err)
	}
	b.hooks.on.Store(false)
	b.st.probe.flaky.Store(false)
	if b.st.learner != nil {
		b.st.learner.Wait()
	}
	b.drainFleet()
	b.ctr[1] = b.st.counters()
	b.gen = g
}

// drainFleet pushes what the fleet session's flush timer has not sent
// yet and gives the acks a moment, so the counters read next match
// ingestion to observation; a degraded link keeps fingerprints spooled
// and fleet.ingest_ratio shows that.
func (b *bench) drainFleet() {
	sess := b.st.sess
	if sess == nil {
		return
	}
	_ = sess.Flush()
	for i := 0; i < 100 && b.st.ingested.Load() < b.st.probe.observed.Load(); i++ {
		time.Sleep(10 * time.Millisecond)
	}
}

// quiesce waits until the readers have drained every published block
// and parked. Only then is closing the rings safe: Ring.Close, like
// Flush, publishes the producer's current block without checking that
// the producer still owns it, so closing a full ring reorders or loses
// frames.
func (b *bench) quiesce() {
	last, stable := b.rec.handled(), 0
	for stable < 10 {
		time.Sleep(5 * time.Millisecond)
		if n := b.rec.handled(); n != last {
			last, stable = n, 0
			continue
		}
		stable++
	}
}

// housekeeping stands in for gatewayd's expiry and retry workers (and,
// on churn, a periodic checkpoint), ticking on the virtual clock. It
// also samples the resident set every 10 ms for rss_mb.
func (b *bench) housekeeping(stop, done chan struct{}) {
	defer close(done)
	per := func(d time.Duration) float64 { return d.Seconds() / b.w.mult }
	nextExp, nextRetry, nextCkpt := per(expiryPeriod), per(retryPeriod), per(b.w.checkpoint)
	gw := b.st.gw
	ms := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		case <-time.After(time.Millisecond):
		}
		if n%10 == 0 {
			b.rssMax = max(b.rssMax, residentMB())
		}
		at := b.rec.handledAt()
		vt := time.Unix(0, b.rec.vOrigin+int64(at*b.w.mult*1e9)).UTC()
		if at >= nextExp {
			nextExp = at + per(expiryPeriod)
			t0 := time.Now()
			b.hk.expired += gw.Switch().Table().Expire(vt)
			b.hk.expire = append(b.hk.expire, ms(t0))
			t0 = time.Now()
			b.hk.finalized += gw.FinalizeIdleCaptures(vt)
			b.hk.finalize = append(b.hk.finalize, ms(t0))
			b.hk.flows = append(b.hk.flows, float64(gw.Switch().Table().Len()))
			b.hk.journalMax = max(b.hk.journalMax, b.st.journalBytes())
		}
		if at >= nextRetry {
			nextRetry = at + per(retryPeriod)
			t0 := time.Now()
			n, _ := gw.RetryQuarantined(vt) // a failed drain is retried next period
			b.hk.promoted += n
			b.hk.retry = append(b.hk.retry, ms(t0))
		}
		if b.w.checkpoint > 0 && at >= nextCkpt {
			nextCkpt = at + per(b.w.checkpoint)
			b.hk.journalMax = max(b.hk.journalMax, b.st.journalBytes())
			t0 := time.Now()
			if err := gw.Checkpoint(); err != nil {
				b.fail("checkpoint: %v", err)
			}
			b.hk.checkpoint = append(b.hk.checkpoint, ms(t0))
		}
	}
}

// handle is the capture pump's handler: HandlePacket, timed from the
// frame's due time.
func (b *bench) handle(ts time.Time, pk *packet.Packet) {
	rec := b.rec
	rr := rec.ringOf(pk.SrcMAC)
	at, tag := rec.schedOf(ts)
	traced := tag >= tagTraced
	var m injMeta
	var hEntry, hStart int64
	if traced {
		hEntry = time.Now().UnixNano()
		if rr.goid.Load() == 0 {
			rr.goid.Store(goid())
		}
		m = rr.fifo.pop()
		hStart = time.Now().UnixNano()
	}
	_, err := b.st.gw.HandlePacket(ts, pk)
	end := time.Now().UnixNano()
	rr.handled.Add(1)
	rr.lastAt.Store(int64(at * 1e9))
	if err != nil {
		rr.errs++
	}
	if w := rec.window(at); w >= 0 {
		lat := end - rec.wallOf(at)
		rr.lat[w] = append(rr.lat[w], uint32(min(max(lat, 0), math.MaxUint32)))
	} else if s := rec.satWall.Load(); s != 0 {
		if sw := int(float64(end-s) / 1e9 / rec.satLen); sw >= 0 && sw < rec.nsat {
			rr.sat[sw]++
		}
	}
	if traced {
		rr.traceFrame(tag-tagTraced, m, hEntry, hStart, end)
	}
}

// report computes every metric and runs the correctness checks.
func (b *bench) report(setups []float64) *result {
	rec := b.rec
	g := b.gen
	out := b.out

	// Packet latency: per measured window, then the median over the
	// windows the host left alone.
	openWs, openClean := pick(&b.openSteal, rec.first, rec.traceStart)
	use := make(map[int]bool, len(openWs))
	for _, w := range openWs {
		use[w] = true
	}
	var p50s, p99s []float64
	var pktSamples, measuredPkts, tracedPkts int
	for w := rec.first; w < rec.nwin; w++ {
		n := 0
		for _, rr := range rec.rings {
			n += len(rr.lat[w])
		}
		if !rec.measured(w) {
			tracedPkts += n
			continue
		}
		measuredPkts += n
		if !use[w] || n == 0 {
			continue
		}
		xs := make([]float64, 0, n)
		for _, rr := range rec.rings {
			for _, v := range rr.lat[w] {
				xs = append(xs, float64(v)/1e3)
			}
		}
		p50s = append(p50s, quantile(xs, 0.50))
		p99s = append(p99s, quantile(xs, 0.99))
		pktSamples += n
	}
	var enf []float64
	for _, s := range rec.enforce {
		if use[rec.window(s.at)] {
			enf = append(enf, float64(s.lat.Nanoseconds())/1e6)
		}
	}
	lat := latencies{
		p50: median(p50s), p99: median(p99s),
		enf50: quantile(enf, 0.50), enf99: quantile(enf, 0.99),
		steal: ratio(b.openSteal.steal-b.openSteal.steal0, b.openSteal.total-b.openSteal.total0),
	}

	// The first saturation window drains the open loop. Closed-loop
	// throughput is CPU-bound, so each window's rate is taken per unit
	// of the CPU time the host gave the guest.
	var satPPS []float64
	for w := 1; w < rec.nsat; w++ {
		var n uint64
		for _, rr := range rec.rings {
			n += rr.sat[w]
		}
		avail := 1.0
		if w < len(b.satSteal.shares) {
			avail -= b.satSteal.shares[w]
		}
		satPPS = append(satPPS, float64(n)/(rec.satLen*avail))
	}
	if !openClean {
		fmt.Fprintf(out, "host: other guests stole over %.0f%% of the CPU in most windows; every window is used and the latencies are unreliable\n", 100*maxSteal)
	}
	fmt.Fprintf(out, "host steal by window: open %v, saturation %v\n", fmtList(b.openSteal.shares), fmtList(b.satSteal.shares))

	// CPU per packet is the gateway process's: the generator stands in
	// for the network and its thread's CPU time is taken out.
	cpuPerPkt := float64((b.gwCPU(0, 2)).Nanoseconds()) / 1e3 / float64(max(measuredPkts+tracedPkts, 1))

	chk := b.check()

	handled := rec.handled()
	var errs uint64
	for _, rr := range rec.rings {
		errs += rr.errs
	}
	accepted := b.fanout.Frames()
	drops := b.fanout.Drops()
	decodeErrs := accepted - min(accepted, handled)

	res := &result{Attempted: g.injected, Metrics: map[string]metric{}}
	res.Failed = errs + decodeErrs + drops + uint64(chk.failOpen)
	correct := res.Failed == 0 && chk.typeMismatch == 0 && len(b.errs) == 0 && g.injected == handled+drops
	res.Correct = correct

	fmt.Fprintf(out, "packets: injected %d handled %d (latency from %d in %d of %d measured windows), HandlePacket errors %d, decode errors %d, drops %d\n",
		g.injected, handled, pktSamples, len(p99s), rec.traceStart-rec.first, errs, decodeErrs, drops)
	fmt.Fprintf(out, "joins: %d enforce samples, %d hooks without a pending close (retry promotions, sweep closes), %d removals, pool wraps %d\n",
		len(enf), rec.unpaired, g.removals, g.wraps)
	fmt.Fprintf(out, "latency: windows p50 %v us, p99 %v us\n", fmtList(p50s), fmtList(p99s))
	fmt.Fprintf(out, "latency: pkt p50 %.4g us, p99 %.4g us; enforce p50 %.4g ms, p99 %.4g ms; host steal %.1f%%\n",
		lat.p50, lat.p99, lat.enf50, lat.enf99, 100*lat.steal)
	fmt.Fprintf(out, "housekeeping: %d flows expired, %d idle captures finalized, %d quarantined devices promoted\n",
		b.hk.expired, b.hk.finalized, b.hk.promoted)
	fmt.Fprintf(out, "checks: %d devices assessed, %d type/level mismatches against a direct Assess (checked %d), %d flow keys audited, fail_open %d, id accuracy %.4f over %d\n",
		chk.assessed, chk.typeMismatch, chk.typeChecked, chk.flowKeys, chk.failOpen, chk.accuracy, chk.accN)
	for _, e := range b.errs {
		fmt.Fprintf(out, "error: %s\n", e)
	}

	add := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(out, "metric %-32s %14.6g %s\n", name, v, unit)
	}
	if !b.o.trace {
		add("setup_s", median(setups), "s")
		add("pkt_p50_us", lat.p50, "us")
		add("enforce_p50_ms", lat.enf50, "ms")
		add("sat_pps", median(satPPS), "1/s")
		add("cpu_us_per_pkt", cpuPerPkt, "us")
		add("rss_mb", b.rssMax, "MB")
		add("id_accuracy", chk.accuracy, "ratio")
		fmt.Fprintf(out, "saturation: windows %v pkt/s per second of host CPU\n", fmtList(satPPS))
		return res
	}
	b.perLayer(add, chk, lat, measuredPkts, tracedPkts, drops, decodeErrs)
	return res
}

// latencies are the wall-clock latency figures. The medians are
// end-to-end metrics of the untraced run; the 99th percentiles, which
// the host's steal spreads too widely for a bound (see the package
// doc), are per-layer metrics of the traced run, measured on its
// untraced half. Every run prints all four.
type latencies struct {
	p50, p99     float64 // µs
	enf50, enf99 float64 // ms
	steal        float64 // host steal share over the open loop
}

// perLayer adds the traced run's per-layer metrics.
func (b *bench) perLayer(add func(string, float64, string), chk checkResult, lat latencies, baselinePkts, tracedPkts int, drops, decodeErrs uint64) {
	rec, g := b.rec, b.gen
	// Counts and ratios cover the load, from its start to the drain: not
	// the set-up's pre-assessment, nor the checks' own lookups.
	c := b.ctr[1].sub(b.ctr[0])
	add("pkt_p99_us", lat.p99, "us")
	add("enforce_p99_ms", lat.enf99, "ms")
	add("host.steal_ratio", lat.steal, "ratio")
	pool := func(f func(rr *ringRec) []float64) []float64 {
		var xs []float64
		for _, rr := range rec.rings {
			xs = append(xs, f(rr)...)
		}
		return xs
	}
	named := func(n string) []float64 { return rec.named[n] }
	add("gen.late_p99_us", quantile(g.late, 0.99), "us")
	add("capture.inject_block_p99_us", quantile(g.injDur, 0.99), "us")
	add("capture.wait_p99_us", quantile(pool(func(rr *ringRec) []float64 { return rr.wait }), 0.99), "us")
	add("capture.drops", float64(drops), "count")
	add("capture.decode_errors", float64(decodeErrs), "count")
	setupPk := pool(func(rr *ringRec) []float64 { return rr.handle[roleSetup] })
	add("gateway.setup_pkt_p50_us", quantile(setupPk, 0.50), "us")
	add("gateway.setup_pkt_p99_us", quantile(setupPk, 0.99), "us")
	add("gateway.close_pkt_p99_us", quantile(pool(func(rr *ringRec) []float64 { return rr.handle[roleClose] }), 0.99), "us")
	enfPk := pool(func(rr *ringRec) []float64 { return rr.handle[roleEnforced] })
	add("gateway.enforced_pkt_p50_us", quantile(enfPk, 0.50), "us")
	add("gateway.enforced_pkt_p99_us", quantile(enfPk, 0.99), "us")
	add("gateway.remove_p99_us", quantile(g.remove, 0.99), "us")
	add("gateway.retry_ms", median(b.hk.retry), "ms")
	add("gateway.finalize_ms", median(b.hk.finalize), "ms")
	assess := named("iotssp.assess")
	add("iotssp.assess_p50_us", quantile(assess, 0.50), "us")
	add("iotssp.assess_p99_us", quantile(assess, 0.99), "us")
	add("iotssp.assess_failed", float64(c.failed), "count")
	add("iotssp.unknown_ratio", ratio(c.unknown, c.assessed), "ratio")
	add("core.cache_hit_ratio", ratio(c.cacheHits, c.cacheHits+c.cacheMisses), "ratio")
	sw := c.sw
	add("sdn.flows_mean", mean(b.hk.flows), "count")
	add("sdn.flows_max", maxOf(b.hk.flows), "count")
	add("sdn.rules", float64(b.st.ctrl.Rules().Len()), "count")
	add("sdn.packet_in_ratio", ratio(sw.PacketIns, sw.PacketIns+sw.TableHits), "ratio")
	add("sdn.drop_ratio", ratio(sw.Dropped, sw.Dropped+sw.Forwarded), "ratio")
	add("sdn.expire_ms", median(b.hk.expire), "ms")
	add("store.journal_bytes_max", float64(b.hk.journalMax), "bytes")
	add("learn.promotions", float64(c.promos), "count")
	add("fleet.wire_bytes_per_fp", ratio(c.wire, c.observed), "bytes")
	add("fleet.ingest_ratio", ratio(c.ingested, c.observed), "ratio")
	add("fleet.spool_dropped", float64(c.spoolDropped), "count")
	// Allocation over the untraced baseline window; the runtime's GC CPU
	// estimate is only brought up to date at the end of each cycle, so
	// its ratio spans the whole open loop.
	g0, g1, g2 := b.gostat[0], b.gostat[1], b.gostat[2]
	add("go.alloc_bytes_per_pkt", (g1.allocBytes-g0.allocBytes)/float64(max(baselinePkts, 1)), "bytes")
	add("go.gc_cpu_ratio", (g2.gcCPU-g0.gcCPU)/math.Max(g2.totalCPU-g0.totalCPU, 1e-9), "ratio")

	var all []span
	var dropped uint64
	for _, rr := range rec.rings {
		all = append(all, rr.spans...)
		dropped += rr.spanDrops
	}
	all = append(all, rec.spans...)
	sum := summarize(all, dropped)
	for _, l := range []string{"gen", "capture_inject", "capture_wait", "gateway", "iotssp"} {
		add("trace.self."+l+"_us", sum.selfUs[l], "us")
	}
	add("trace.unattributed_ratio", sum.unattributed, "ratio")
	base := float64(b.gwCPU(0, 1).Nanoseconds()) / float64(max(baselinePkts, 1))
	traced := float64(b.gwCPU(1, 2).Nanoseconds()) / float64(max(tracedPkts, 1))
	add("trace.overhead_ratio", traced/math.Max(base, 1e-9)-1, "ratio")
	add("trace.spans", float64(sum.spans), "count")
	add("audit.fail_open", float64(chk.failOpen), "count")

	// Churn-only timings: printed, not part of the metric set (they do
	// not exist on the other workloads).
	for _, n := range []string{"learn.observe", "fleet.observe", "iotssp.promote"} {
		if xs := named(n); len(xs) > 0 {
			fmt.Fprintf(b.out, "extra %s: p50 %.3f us p99 %.3f us over %d calls\n", n, quantile(xs, 0.5), quantile(xs, 0.99), len(xs))
		}
	}
	if len(b.hk.checkpoint) > 0 {
		fmt.Fprintf(b.out, "extra gateway.checkpoint: median %.3f ms over %d calls\n", median(b.hk.checkpoint), len(b.hk.checkpoint))
	}
	fmt.Fprintf(b.out, "trace: %d spans over %d traced packets (%d dropped at the span bound)\n", sum.spans, sum.packets, sum.dropped)
	fmt.Fprintf(b.out, "counts over the load: core cache %d hits %d misses; assessments %d ok %d unknown %d failed; switch %d packet-ins %d table hits %d forwarded %d dropped; fleet %d observed %d ingested %d wire bytes\n",
		c.cacheHits, c.cacheMisses, c.assessed, c.unknown, c.failed, sw.PacketIns, sw.TableHits, sw.Forwarded, sw.Dropped, c.observed, c.ingested, c.wire)
	path := filepath.Join(buildDir, fmt.Sprintf("spans-%s.jsonl", b.w.name))
	if err := writeSpans(path, all, rec.wOrigin); err != nil {
		b.fail("write spans: %v", err)
		return
	}
	fmt.Fprintf(b.out, "trace: wrote %s\n", path)
}

// pick returns the windows in [from, n) the wall-clock metrics use:
// those the host left alone, or all of them (clean false) when fewer
// than a third are.
func pick(m *stealMeter, from, n int) (ws []int, clean bool) {
	var all []int
	for w := from; w < n; w++ {
		all = append(all, w)
		if m.clean(w) {
			ws = append(ws, w)
		}
	}
	if 3*len(ws) < len(all) {
		return all, false
	}
	return ws, true
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return fmt.Sprint(s)
}
