package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/fleet"
	"iotsentinel/internal/gateway"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/learn"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/store"
	"iotsentinel/internal/vulndb"
)

// gatewayd's defaults, which the stack reproduces.
const (
	trainCaptures    = 20               // -captures
	switchIdle       = 30 * time.Second // sdn.NewSwitch idle timeout
	expiryPeriod     = 5 * time.Second  // gateway.NewExpiryWorker period
	retryPeriod      = 5 * time.Second  // -retry-period
	heldOutProfiles  = 3                // churn: catalog tail excluded from training
	flakeRate        = 0.01             // churn: share of Assess calls that fail
	idleGap          = 10 * time.Second // gateway.Config.IdleGap default
	fleetLease       = 5 * time.Second
	fleetFlushPeriod = time.Second // gatewayd's fleet FlushInterval
)

// stack is one gateway wired as gatewayd wires it by default, plus the
// churn workload's durable store, learner and fleet session.
type stack struct {
	svc   *iotssp.Service
	probe *probe
	ctrl  *sdn.Controller
	sw    *sdn.Switch
	gw    *gateway.Gateway

	st       *store.Store
	stateDir string
	learner  *learn.Learner
	sess     *fleet.Session
	fleetSrv *fleet.Server
	fleetLn  net.Listener
	wire     atomic.Uint64 // bytes the session wrote on its connection
	ingested atomic.Uint64 // fingerprints the fleet server ingested
	promos   atomic.Uint64
	// Identify-cache counts of banks promotions replaced: each
	// promotion swaps in a bank with a fresh cache.
	retiredHits, retiredMisses atomic.Uint64
}

// cacheStats is the identify cache's hits and misses across every bank
// the service has served.
func (s *stack) cacheStats() (hits, misses uint64) {
	hits, misses = s.svc.Identifier().Cache().Stats()
	return hits + s.retiredHits.Load(), misses + s.retiredMisses.Load()
}

// counters are the stack's cumulative counts. The per-layer counts and
// ratios are differences between two readings, so the set-up's
// pre-assessment and the end-of-run checks' own lookups stay out.
type counters struct {
	assessed, unknown, failed, observed uint64
	cacheHits, cacheMisses              uint64
	sw                                  sdn.SwitchStats
	wire, ingested, promos              uint64
	spoolDropped                        uint64
}

func (s *stack) counters() counters {
	c := counters{
		assessed: s.probe.assessed.Load(), unknown: s.probe.unknown.Load(),
		failed: s.probe.failed.Load(), observed: s.probe.observed.Load(),
		sw:   s.sw.Stats(),
		wire: s.wire.Load(), ingested: s.ingested.Load(), promos: s.promos.Load(),
	}
	c.cacheHits, c.cacheMisses = s.cacheStats()
	if s.sess != nil {
		c.spoolDropped = s.sess.Stats().SpoolDropped
	}
	return c
}

// sub is the counts between reading o and reading c.
func (c counters) sub(o counters) counters {
	return counters{
		assessed: c.assessed - o.assessed, unknown: c.unknown - o.unknown,
		failed: c.failed - o.failed, observed: c.observed - o.observed,
		cacheHits: c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
		sw: sdn.SwitchStats{
			Forwarded: c.sw.Forwarded - o.sw.Forwarded, Dropped: c.sw.Dropped - o.sw.Dropped,
			PacketIns: c.sw.PacketIns - o.sw.PacketIns, TableHits: c.sw.TableHits - o.sw.TableHits,
		},
		wire: c.wire - o.wire, ingested: c.ingested - o.ingested, promos: c.promos - o.promos,
		spoolDropped: c.spoolDropped - o.spoolDropped,
	}
}

// trainBank trains the bank on every catalog profile except the
// excluded ones, as gatewayd's loadOrTrain does.
func trainBank(seed int64, exclude map[string]bool) (*core.Identifier, error) {
	raw := devices.GenerateDataset(trainCaptures, seed)
	ds := make(map[core.TypeID][]fingerprint.Fingerprint, len(raw))
	for k, v := range raw {
		if !exclude[k] {
			ds[core.TypeID(k)] = v
		}
	}
	return core.Train(ds, core.Config{Seed: seed, CacheSize: core.DefaultCacheSize})
}

// buildStack wires the gateway. hooks receives the gateway callbacks;
// dir, when non-empty, holds the churn workload's state.
func buildStack(id *core.Identifier, w *workload, seed int64, dir string, hooks *hooks) (*stack, error) {
	s := &stack{svc: iotssp.New(id, vulndb.NewDefault())}
	s.probe = &probe{svc: s.svc, hooks: hooks}
	if w.flaky {
		s.probe.rng = rand.New(rand.NewSource(seed ^ 0x3c6ef372))
	}
	cfg := gateway.Config{
		Shards:        gateway.DefaultShards,
		OnAssessed:    hooks.onAssessed,
		OnQuarantined: hooks.onQuarantined,
	}
	if w.durable {
		if err := s.openDurable(dir, seed, hooks); err != nil {
			s.close()
			return nil, err
		}
		cfg.Store = s.st
		cfg.OnUnknown = func(_ gateway.DeviceInfo, fp fingerprint.Fingerprint) {
			t0 := hooks.clock()
			s.learner.Observe(fp)
			hooks.timeSince("learn.observe", t0)
		}
		cfg.LearnState = s.learner.SnapshotState
		s.probe.sess = s.sess
	}
	s.ctrl = sdn.NewController(sdn.NewRuleCache(), netip.MustParsePrefix("192.168.0.0/16"))
	s.sw = sdn.NewSwitch(s.ctrl, switchIdle)
	s.gw = gateway.New(s.probe, s.sw, cfg)
	return s, nil
}

// openDurable opens the state dir, the learner and a fleet session over
// one loopback connection to an in-process fleet server.
func (s *stack) openDurable(dir string, seed int64, hooks *hooks) error {
	s.stateDir = dir
	var err error
	if s.st, _, err = store.Open(dir, store.Options{}); err != nil {
		return fmt.Errorf("state dir: %w", err)
	}
	s.learner, err = learn.New(learn.Config{
		Promote: func(t core.TypeID, fps []fingerprint.Fingerprint) (*core.Identifier, error) {
			t0 := hooks.clock()
			old := s.svc.Identifier()
			id, err := s.svc.PromoteType(t, fps, iotssp.PromoteOptions{})
			hooks.timeSince("iotssp.promote", t0)
			if err == nil {
				h, m := old.Cache().Stats()
				s.retiredHits.Add(h)
				s.retiredMisses.Add(m)
			}
			return id, err
		},
		Known:      s.svc.HasType,
		Store:      s.st,
		OnPromoted: func(core.TypeID, *core.Identifier) { s.promos.Add(1) },
	})
	if err != nil {
		return err
	}
	if s.fleetLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	s.fleetSrv, err = fleet.NewServer(fleet.ServerConfig{
		Registry: fleet.NewRegistry(fleetLease, nil),
		Ingest: func(fps []fingerprint.Fingerprint) int {
			s.ingested.Add(uint64(len(fps)))
			return 0
		},
	})
	if err != nil {
		return err
	}
	go func() { _ = s.fleetSrv.Serve(s.fleetLn) }()
	addr := s.fleetLn.Addr().String()
	s.sess, err = fleet.NewSession(fleet.SessionConfig{
		Client: fleet.ClientConfig{
			GatewayID:     "gwbench",
			FlushInterval: fleetFlushPeriod,
			Dialer: func() (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return &countingConn{Conn: c, n: &s.wire}, nil
			},
		},
		Retry: iotssp.RetryPolicy{Seed: uint64(seed)},
	})
	return err
}

// close releases everything the stack started and waits for it.
func (s *stack) close() {
	if s.gw != nil {
		s.gw.Close()
	}
	if s.learner != nil {
		s.learner.Wait()
		s.learner.Close()
	}
	if s.sess != nil {
		_ = s.sess.Close()
	}
	if s.fleetSrv != nil {
		_ = s.fleetSrv.Close()
	} else if s.fleetLn != nil {
		_ = s.fleetLn.Close()
	}
	if s.st != nil {
		_ = s.st.Close()
	}
	if s.stateDir != "" {
		_ = os.RemoveAll(s.stateDir)
	}
}

// journalBytes is the size of the state dir's journal.
func (s *stack) journalBytes() int64 {
	if s.stateDir == "" {
		return 0
	}
	fi, err := os.Stat(filepath.Join(s.stateDir, "journal.wal"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// countingConn counts the bytes written on the fleet connection.
type countingConn struct {
	net.Conn
	n *atomic.Uint64
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(uint64(n))
	return n, err
}

// errFlake is the churn workload's injected assessment failure.
var errFlake = fmt.Errorf("gwbench: injected assessment failure")

// probe wraps the in-process service as the gateway's Assessor. It
// times every call, counts outcomes, and on churn fails a seeded share
// of calls and streams assessments up the fleet session the way
// gatewayd's fleetAssessor does. It keeps AssessBatch so the gateway's
// batch path stays in use.
type probe struct {
	svc   *iotssp.Service
	hooks *hooks
	sess  *fleet.Session

	mu    sync.Mutex
	rng   *rand.Rand // nil: never fail
	flaky atomic.Bool

	assessed atomic.Uint64 // successful assessments
	unknown  atomic.Uint64
	failed   atomic.Uint64
	observed atomic.Uint64 // fingerprints handed to the fleet session
}

func (p *probe) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	t0 := p.hooks.clock()
	if p.rng != nil && p.flaky.Load() {
		p.mu.Lock()
		fail := p.rng.Float64() < flakeRate
		p.mu.Unlock()
		if fail {
			p.failed.Add(1)
			p.hooks.assessDone(t0)
			return iotssp.Assessment{}, errFlake
		}
	}
	a, err := p.svc.Assess(fp)
	p.count(a, err)
	if err == nil && p.sess != nil {
		t1 := p.hooks.clock()
		p.sess.RecordAssessment(!a.Known)
		_ = p.sess.Observe(fp) // a degraded link spools; it never fails an assessment
		p.observed.Add(1)
		p.hooks.timeSince("fleet.observe", t1)
	}
	p.hooks.assessDone(t0)
	return a, err
}

func (p *probe) AssessBatch(fps []fingerprint.Fingerprint) ([]iotssp.Assessment, error) {
	as, err := p.svc.AssessBatch(fps)
	if err != nil {
		p.failed.Add(uint64(len(fps)))
		return nil, err
	}
	for i, a := range as {
		p.count(a, nil)
		if p.sess != nil {
			p.sess.RecordAssessment(!a.Known)
			_ = p.sess.Observe(fps[i])
			p.observed.Add(1)
		}
	}
	return as, nil
}

func (p *probe) count(a iotssp.Assessment, err error) {
	if err != nil {
		p.failed.Add(1)
		return
	}
	p.assessed.Add(1)
	if !a.Known {
		p.unknown.Add(1)
	}
}
