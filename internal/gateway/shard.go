package gateway

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/packet"
)

// Device-state sharding. The gateway's data path used to serialize
// every HandlePacket call behind one mutex, which capped forwarding
// throughput at one core no matter how parallel the classifier bank
// is. All per-device state (the monitoring capture and the DeviceInfo)
// is keyed by MAC, so it partitions cleanly: state lives in
// power-of-two striped shards selected by an FNV-1a hash of the MAC,
// and packets from different devices touch different locks. Cross-MAC
// state (the quarantine retry queue) has its own mutex, ordered
// strictly after any shard lock.
//
// Lock order: shard.mu → Gateway.qmu. A thread never holds two shard
// locks at once; sweeps (FinishAllSetups, Devices, …) lock shards one
// at a time and merge in MAC order so their results stay deterministic
// regardless of the shard count.

// DefaultShards is the shard count selected when Config.Shards is 0.
// Sharding is behavior-transparent — any count produces identical
// device states — so the default favors throughput.
const DefaultShards = 8

// shard is one stripe of the gateway's per-device state.
type shard struct {
	mu       sync.Mutex
	captures map[packet.MAC]*fingerprint.SetupCapture
	devices  map[packet.MAC]*DeviceInfo
}

func newShard() *shard {
	return &shard{
		captures: make(map[packet.MAC]*fingerprint.SetupCapture),
		devices:  make(map[packet.MAC]*DeviceInfo),
	}
}

// shardCount normalizes a configured shard count to a power of two:
// 0 selects DefaultShards, anything else rounds up.
func shardCount(n int) int {
	if n <= 0 {
		n = DefaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardIndex maps a MAC onto a shard slot with packet.MACHash. The
// mask is len(shards)-1, valid because the count is a power of two.
func shardIndex(mac packet.MAC, mask uint32) uint32 {
	return packet.MACHash(mac) & mask
}

// shardOf returns the shard owning mac's state.
func (g *Gateway) shardOf(mac packet.MAC) *shard {
	return g.shards[shardIndex(mac, g.shardMask)]
}

// ErrAssessBacklog is the quarantine cause recorded when the bounded
// assessment queue overflowed and a pending fingerprint was dropped
// from it: the device fails closed (strict isolation) and the retry
// worker re-submits it once the backlog clears.
var ErrAssessBacklog = errors.New("gateway: assessment queue backlog, fingerprint parked for retry")

// assessJob is one finished setup capture awaiting identification.
type assessJob struct {
	mac packet.MAC
	fp  fingerprint.Fingerprint
	ts  time.Time
}

// asyncAssess is the off-path identification pipeline: one bounded
// queue and one drain goroutine per shard. HandlePacket enqueues
// finished captures and returns immediately; overflow evicts the
// oldest pending job (drop-oldest — the freshest fingerprint is the
// one most likely to still matter) and parks it in quarantine, so
// forwarding never blocks on the classifier bank and no fingerprint is
// silently lost.
type asyncAssess struct {
	queues   []chan assessJob
	stop     chan struct{}
	wg       sync.WaitGroup
	inflight atomic.Int64
}

func newAsyncAssess(g *Gateway, shards, depth int) *asyncAssess {
	a := &asyncAssess{
		queues: make([]chan assessJob, shards),
		stop:   make(chan struct{}),
	}
	for i := range a.queues {
		a.queues[i] = make(chan assessJob, depth)
		a.wg.Add(1)
		go a.drain(g, a.queues[i])
	}
	return a
}

func (a *asyncAssess) drain(g *Gateway, q chan assessJob) {
	defer a.wg.Done()
	for {
		select {
		case job := <-q:
			g.cfg.Metrics.queueDepthAdd(-1)
			g.assess(job.mac, job.fp, job.ts)
			a.inflight.Add(-1)
		case <-a.stop:
			// Park whatever is still queued so a shutdown mid-storm
			// fails closed instead of forgetting devices.
			for {
				select {
				case job := <-q:
					g.cfg.Metrics.queueDepthAdd(-1)
					g.quarantineDevice(job.mac, job.fp, job.ts, ErrAssessBacklog)
					a.inflight.Add(-1)
				default:
					return
				}
			}
		}
	}
}

// enqueue hands one finished capture to the drain worker for shard i,
// never blocking: on overflow the oldest pending job is evicted and
// quarantined for retry. The caller must not hold any shard lock.
func (a *asyncAssess) enqueue(g *Gateway, i uint32, job assessJob) {
	a.inflight.Add(1)
	for {
		select {
		case a.queues[i] <- job:
			g.cfg.Metrics.queueDepthAdd(1)
			return
		default:
		}
		// Queue full: evict the oldest job (if a drain worker has not
		// raced us to it) and park it fail-closed, then retry the send.
		select {
		case old := <-a.queues[i]:
			g.cfg.Metrics.queueDepthAdd(-1)
			g.cfg.Metrics.incQueueDrop()
			g.quarantineDevice(old.mac, old.fp, old.ts, ErrAssessBacklog)
			a.inflight.Add(-1)
		default:
		}
	}
}

// shutdown stops the drain workers and waits for them; queued jobs are
// quarantined (see drain).
func (a *asyncAssess) shutdown() {
	close(a.stop)
	a.wg.Wait()
}

// Close shuts down the asynchronous assessment pipeline, if one is
// configured: drain workers exit and still-queued fingerprints are
// parked in quarantine (fail closed). Safe to call once, after which
// newly finished captures assess synchronously.
func (g *Gateway) Close() {
	if g.async != nil {
		g.async.shutdown()
		g.async = nil
	}
}

// WaitAssessIdle blocks until the asynchronous assessment pipeline has
// no queued or in-flight work, polling at a small interval (loadgen and
// deterministic tests use it as a drain barrier). It returns
// immediately when the pipeline is synchronous.
func (g *Gateway) WaitAssessIdle() {
	a := g.async
	if a == nil {
		return
	}
	for a.inflight.Load() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
}
