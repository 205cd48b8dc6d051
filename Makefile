# IoT Sentinel build/test entry points. `make verify` is the tier-1
# gate (vet + gofmt check + build + a vulnerability/static-analysis
# pass when the tooling is installed + shuffled full test suite + a
# short -race pass over the gateway, online learner, durable store,
# metrics registry, fleet control plane, capture ring and enforcement
# plane + the crash fault-injection sweep + the seeded fleet-link chaos
# sweep (see `make chaos`) + a short fuzz pass over the capture ring
# and readers, the flow table against its scan oracle, the model
# deserializer, the cluster-linkage input and the fleet wire decoders +
# a short sustained-load soak with its leak/latency gates);
# `make test-race` covers the concurrent
# classifier bank, gateway, online learner, fleet control plane and
# enforcement plane in full;
# `make fuzz` runs each fuzz target for FUZZTIME; `make crash` runs the
# journal truncation/corruption sweeps and restart differential tests;
# `make chaos` runs the fleet-link fault-injection suites under a
# logged CHAOS_SEED (override to reproduce a failing schedule);
# `make bench` runs every paper-table benchmark plus the parallel
# train/identify sweeps; `make bench-json` archives the hot-path
# benchmarks as BENCH_<date>.json for cross-commit diffing;
# `make bench-check` diffs the two newest archives and fails on a >10%
# ns/op regression (or a zero-alloc path that started allocating);
# `make soak` sustains SOAK_DEVICES modeled devices with churn through
# the capture front end for SOAK_DURATION, gating on p99 latency, RSS,
# goroutine growth and state-dir fd leaks, archiving SOAK_<date>.json;
# `make soak-check` diffs the two newest soak archives and fails on a
# >10% sustained-throughput drop.

GO ?= go
BENCH_PKGS ?= ./internal/...
# The root-package paper benchmarks worth archiving: the single-probe
# and batch identification hot paths over the full 27-type bank, and
# the enforcement plane's rule install, switch fast path and Table VI
# overhead. The heavyweight figure/table benchmarks (cross-validation
# sweeps) stay out of the archive — `make bench` still runs them all.
BENCH_ROOT ?= ^Benchmark(ClassifySingle|EditDistanceSingle|TypeIdentification|FingerprintExtraction|Table6Overhead|Fig6cRuleInstall|SwitchFastPath)$$
# bench-json runs each benchmark BENCH_COUNT times; cmd/benchjson keeps
# the minimum ns/op per benchmark, damping scheduler noise on busy
# hosts so `make bench-check` compares capability, not luck.
BENCH_COUNT ?= 3
FUZZTIME ?= 10s
# Soak defaults: short enough for the verify gate, big enough to model
# a real fleet's device population on one gateway.
SOAK_DURATION ?= 30s
SOAK_DEVICES ?= 10000
# Seed for the chaos-conn fault schedule. Defaults to today's date so
# routine runs rotate through schedules; a failing run is reproduced by
# re-running with the seed it logged.
CHAOS_SEED ?= $(shell date +%Y%m%d)

.PHONY: all build vet fmt-check vulncheck verify test test-race fuzz crash chaos soak soak-check bench bench-parallel bench-json bench-check clean

all: verify

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Vulnerability scan when govulncheck is installed; static analysis via
# staticcheck as the offline fallback; a visible skip when the
# container has neither (the gate must not depend on network access).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "vulncheck: neither govulncheck nor staticcheck installed; skipping"; \
	fi

verify: vet fmt-check build vulncheck
	$(GO) test -shuffle=on ./...
	$(GO) test -race -count=1 ./internal/capture/... ./internal/chaos/... ./internal/fleet/... ./internal/gateway/... ./internal/learn/... ./internal/obs/... ./internal/sdn/... ./internal/store/...
	$(MAKE) crash
	$(MAKE) chaos
	$(MAKE) fuzz
	$(MAKE) soak

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet build
	$(GO) test -shuffle=on ./...

test-race:
	$(GO) test -race ./internal/chaos/... ./internal/core/... ./internal/fleet/... ./internal/gateway/... ./internal/iotssp/... ./internal/learn/... ./internal/sdn/...

fuzz:
	$(GO) test -fuzz='^FuzzRingDelivery$$' -fuzztime=$(FUZZTIME) ./internal/capture/
	$(GO) test -fuzz='^FuzzVectorPack$$' -fuzztime=$(FUZZTIME) ./internal/features/
	$(GO) test -fuzz='^FuzzFlowTable$$' -fuzztime=$(FUZZTIME) ./internal/sdn/
	$(GO) test -fuzz='^FuzzReadPcap$$' -fuzztime=$(FUZZTIME) ./internal/pcap/
	$(GO) test -fuzz='^FuzzReadPcapNG$$' -fuzztime=$(FUZZTIME) ./internal/pcap/
	$(GO) test -fuzz='^FuzzLoad$$' -fuzztime=$(FUZZTIME) ./internal/ml/rf/
	$(GO) test -fuzz='^FuzzBandedDistance$$' -fuzztime=$(FUZZTIME) ./internal/editdist/
	$(GO) test -fuzz='^FuzzClusterLinkage$$' -fuzztime=$(FUZZTIME) ./internal/learn/
	$(GO) test -fuzz='^FuzzFrameDecoder$$' -fuzztime=$(FUZZTIME) ./internal/fleet/
	$(GO) test -fuzz='^FuzzBatchDecoder$$' -fuzztime=$(FUZZTIME) ./internal/fleet/

# The crash fault-injection sweep: journal torn-tail truncation at
# every byte, single-byte corruption at every byte, snapshot damage,
# and the quarantined-before-crash -> promoted-after-restart flow.
crash:
	$(GO) test -count=1 -run 'TestCrashRecovery|TestRestartResumes|TestJournalTornTail|TestJournalCorruption|TestSnapshotCorruption' \
		./internal/gateway/ ./internal/store/

# The fleet-link chaos sweep: the seed-driven fault middleware's own
# suite plus the e2e canary-rollout-under-faults and half-open-peer
# scenarios, pinned to CHAOS_SEED so a red run reproduces exactly.
chaos:
	@echo "chaos: CHAOS_SEED=$(CHAOS_SEED)"
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -count=1 -run 'TestChaos' ./internal/chaos/ ./internal/fleet/

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

bench-parallel:
	$(GO) test -bench='BenchmarkTrainParallel|BenchmarkIdentifyBatch|BenchmarkIdentifySharedBank' -benchmem -run='^$$' .

bench-json:
	{ $(GO) test -bench=. -benchmem -run='^$$' -count=$(BENCH_COUNT) $(BENCH_PKGS) ; \
	  $(GO) test -bench='$(BENCH_ROOT)' -benchmem -run='^$$' -count=$(BENCH_COUNT) . ; } \
		| $(GO) run ./cmd/benchjson -o BENCH_$$(date +%Y%m%d).json
	@echo "wrote BENCH_$$(date +%Y%m%d).json"

# bench-check enforces the named steady-state hot paths — the
# benchmarks a serving gateway actually lives in. Everything else in
# the archive is printed for context but cannot fail the build:
# sub-microsecond non-serving benchmarks (packet codecs, convenience
# APIs, device-churn stress loops) swing far past any sane threshold
# with host load, and training is a one-time boot cost.
BENCH_GATE ?= ^(core\.(IdentifySteadyState|IdentifyBatchSteadyState|IdentifyCacheHit|IdentifyWarmBootCached)|editdist\.DiscriminateRefSet|fingerprint\.CanonicalKey|gateway\.HandlePacketSteadyState|rf\.(PredictBatchInto|AcceptSoft)|iotsentinel\.(ClassifySingle|TypeIdentification))$$

bench-check:
	$(GO) run ./cmd/benchreport -delta . -delta-gate '$(BENCH_GATE)'

# The sustained-load soak: N modeled devices with steady churn (joins,
# firmware re-fingerprints, quarantine flaps, unknown clusters feeding
# the learner) through the capture fanout, continuously gated on p99
# HandlePacket, RSS, goroutine growth and journal/snapshot fd leaks. A
# gate failure dumps pprof goroutine/heap profiles and fails the build.
soak:
	$(GO) run ./cmd/loadgen -soak -soak-duration $(SOAK_DURATION) -soak-devices $(SOAK_DEVICES)

soak-check:
	$(GO) run ./cmd/benchreport -soak-delta .

clean:
	$(GO) clean ./...
