// Command gwbench is the gateway's end-to-end benchmark: it follows
// devices from their first setup frame to their first enforced packet
// and times every packet from its due time until HandlePacket returns,
// with per-layer attribution in a separate traced run.
//
// Run it from the repository root (the script builds it from source):
//
//	bash gwbench/run.sh --workload join-storm --seed 1 --seconds 30 --trace 0
//
// It prints one line per metric ("metric <name> <value> <unit>"), the
// environment (NumCPU, GOMAXPROCS, Go version, seed, offered rates and
// the clock multiple), the sample counts and the correctness checks,
// and last a JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1
// the per-layer ones. BENCHMARK.json at the repository root names them
// and fixes their bounds.
//
// # The stack
//
// The gateway is wired as gatewayd wires it by default: an in-process
// IoT Security Service trained on 20 captures per catalog type with
// the default identification cache, synchronous assessment (no assess
// queue), gateway.DefaultShards, an sdn switch with a 30 s idle
// timeout, no metrics registry. Frames enter through
// capture.Fanout.Inject on lossless rings, and capture.Attach runs one
// reader per ring with GOMAXPROCS rings (2 on the reference host);
// each reader calls gateway.HandlePacket. One generator goroutine is
// the whole load: it merges every device's schedule and injects each
// frame at its due time.
//
// # Virtual clock and housekeeping
//
// Packet timestamps come from a virtual clock that runs at a fixed
// multiple of wall time (the workload's clock multiple, printed with
// every result), so the 10 s setup idle gap and the 30 s flow idle
// timeout pass in a fraction of a second of wall time. A frame's
// timestamp is its due time on that clock; due times are whole
// microseconds and the nanosecond digits carry the frame's role
// (setup, close, enforced) and whether it is traced. gatewayd's
// wall-clock workers are replaced by one housekeeping goroutine that
// calls Table().Expire and FinalizeIdleCaptures every 5 s and
// RetryQuarantined every 5 s of virtual time, and Checkpoint on churn,
// at the virtual time the data path has reached (the earliest of the
// readers' latest frames), so a sweep never finalizes a capture whose
// next frame still sits in a ring.
//
// # Phases
//
// A run sets up three times (training, traffic generation, and the
// resident population replayed through HandlePacket and assessed with
// FinishAllSetups) and measures the last set-up. The open-loop phase
// (70% of --seconds) runs in windows of about 1 s; the windows of the
// warm-up (long enough for a join to complete) are not measured. The
// closed-loop saturation phase (the rest) injects the same mix as fast
// as the lossless rings accept; its first window drains the open loop.
//
// The host is a shared virtual machine, and other guests at times steal
// a third of its CPU time, which multiplies every wall-clock latency.
// The benchmark reads the host's steal counter from /proc/stat at each
// window boundary and leaves a window out of the latency medians and
// the enforce samples when more than 8% of the CPU was stolen in it or
// in the window before (whose backlog spills over); when fewer than a
// third of the windows are left it uses them all and says the
// latencies are unreliable. Set-up and closed-loop throughput are
// CPU-bound, so their times and rates are taken per unit of CPU time
// the host gave the guest. The steal share of every window is printed.
//
// # Workloads
//
// join-storm: Poisson arrivals of new devices, each a fresh seeded
// setup capture from the 27-type catalog with its own MAC. One idle
// gap after its last setup frame a device sends a 4-frame burst whose
// first frame closes the capture and gets enforced. Each arrival
// evicts the oldest of 1000 resident devices with RemoveDevice, so the
// rule and flow tables stay the same size; there is no state dir.
// Every device costs one fingerprint, one identification, one rule
// install and two invalidations, so fingerprint, core, iotssp and the
// sdn invalidation path do the work and flow matching does little.
// The catalog repeats fingerprints (about 4.6k distinct keys in 27k
// captures), so most identifications hit the identify cache even
// here; core.cache_hit_ratio reports the share with its counts.
//
// steady-enforce: 5000 pre-assessed devices (strict, restricted and
// trusted alike) replay 8 frames each of their standby and operation
// traffic round-robin at a fixed packet rate, so every flow is hit
// well within the idle timeout, plus a trickle of joins (each evicting
// the oldest of 150 joined devices) so enforce_* has samples. Almost
// every packet is a flow-table hit and identification is nearly idle:
// the no-change workload for identification changes and the main one
// for per-packet cost.
//
// churn: the soak's mix made stationary. 10000 pre-assessed residents
// forward 4 frames each of their traffic while, at fixed rates,
// residents leave and rejoin after 60 s of virtual time, re-fingerprint
// after a firmware update (same frames, so the identify cache hits),
// flap through quarantine (a seeded assessor fails 1% of calls;
// RetryQuarantined promotes them), and devices of 3 held-out types
// arrive and feed the online learner, which promotes them (each
// promotion swaps in a bank with a fresh identify cache). A durable state dir takes a Checkpoint
// every 20 s of virtual time, and a fleet Session streams every
// assessment over one loopback connection to an in-process fleet
// server. Writes to a large flow table (invalidate, install, expire)
// contend with Match reads while store, learn and fleet run beside the
// data path; a gain for one use that costs another shows here.
//
// # End-to-end metrics
//
//	setup_s         median over the three set-ups of their wall time
//	                per unit of CPU time the host gave the guest
//	pkt_p50_us      median over the measured windows of the window's
//	                p50 of due time → HandlePacket return
//	enforce_p50_ms  p50 of due time of the frame that closes a
//	                capture → the device's OnAssessed or
//	                OnQuarantined hook
//	sat_pps         median over saturation windows of packets handled
//	                per second of CPU time the host gave the guest
//	cpu_us_per_pkt  process CPU per packet over the measured windows,
//	                less the generator thread's own CPU; the CPU
//	                RemoveDevice spends on the generator's thread (each
//	                eviction and leave) is the gateway's and stays in
//	rss_mb          peak resident set of the process while the load
//	                runs, sampled every 10 ms; the earlier set-ups'
//	                garbage is returned to the OS first
//	id_accuracy     share of assessed devices of a trained type whose
//	                assigned type is their catalog type
//
// Packets, enforce samples, HandlePacket errors, decode errors, capture
// drops and fail-open flows are counted and printed; attempted is the
// frames injected and failed the sum of the four failure counts.
//
// # Latency
//
// The medians, pkt_p50_us and enforce_p50_ms, are end-to-end metrics
// of the untraced run with a bound. The 99th percentiles,
//
//	pkt_p99_us      median over the measured windows of the window's
//	                p99 of due time → HandlePacket return
//	enforce_p99_ms  p99 of due time of the closing frame → hook
//
// are per-layer metrics of the traced run (measured on its untraced
// half), and every run prints all four ("latency:" lines). Other
// guests on the reference host (a shared 2-vCPU virtual machine) at
// times steal 10–30% of the CPU for minutes; a stolen run's
// pkt_p50_us reads 50–1700 µs instead of 15–20 µs. The windows the host left alone (above)
// keep the medians steady enough for a bound. The host's speed also
// shifts, with no steal reported, in regimes that last minutes, and
// every wall-clock figure follows it; join-storm's enforce_p50_ms
// follows it most. In 20 s runs that metric spread by up to 0.26 of its
// median over ten seeds, so a run is 30 s (BENCHMARK.json run_seconds);
// over two sets of ten 30 s runs the medians' quartile spread was
// 0.05–0.16 of the median, inside the 0.25 bound (BASELINE.md). The
// p99s of the same runs spread from 0.23 to 2.3, so they carry no bound.
//
// # Per-layer metrics and the metric each should move
//
//	host.steal_ratio: share of the host's CPU other guests took during
//	the open loop; read it before any latency
//	pkt_p99_us, enforce_p99_ms: the tails of the end-to-end medians
//	gen.late_p99_us, capture.inject_block_p99_us,
//	capture.wait_p99_us (ring residency plus decode), capture.drops,
//	capture.decode_errors
//	        → pkt_p99_us and sat_pps on steady-enforce
//	gateway.setup_pkt_p50_us, gateway.setup_pkt_p99_us
//	        → sat_pps on join-storm
//	gateway.close_pkt_p99_us (self time, without the Assess child)
//	        → enforce_* on join-storm and churn
//	gateway.enforced_pkt_p50_us, gateway.enforced_pkt_p99_us
//	        → pkt_* on steady-enforce
//	gateway.remove_p99_us
//	        → pkt_p99_us on churn, sat_pps on join-storm
//	gateway.retry_ms, gateway.finalize_ms
//	        → enforce_p99_ms on churn
//	iotssp.assess_p50_us, iotssp.assess_p99_us, iotssp.assess_failed,
//	iotssp.unknown_ratio, core.cache_hit_ratio
//	        → enforce_* (join-storm's identifications miss the cache
//	          only when the catalog yields a new fingerprint; churn's
//	          re-fingerprints hit unless a promotion has just swapped
//	          in a bank with an empty cache)
//	sdn.flows_mean, sdn.flows_max, sdn.rules, sdn.packet_in_ratio,
//	sdn.drop_ratio, sdn.expire_ms
//	        → pkt_p99_us on churn, pkt_* on steady-enforce
//	store.journal_bytes_max, learn.promotions, fleet.wire_bytes_per_fp
//	(bytes written on the session's connection per fingerprint
//	observed), fleet.ingest_ratio, fleet.spool_dropped (churn only; 0
//	elsewhere)
//	        → enforce_p99_ms and rss_mb on churn; predicted not to move
//	          pkt_*
//	go.alloc_bytes_per_pkt (untraced baseline window), go.gc_cpu_ratio
//	        → cpu_us_per_pkt everywhere, pkt_p99_us on steady-enforce
//	audit.fail_open
//	        → the security property itself; must stay 0
//
// The counts and ratios among them (assessments, unknowns and
// failures, identify-cache hits and misses, switch packet-ins, table
// hits, drops, promotions, fleet observations, ingestion and wire
// bytes) are differences over the load, from the start of the open
// loop to the drain after the saturation phase: the set-up's
// pre-assessment and the checks' own Assess calls stay out. The
// traced run prints their base counts ("counts over the load").
//
// The churn-only timings of gateway.Checkpoint, learner.Observe,
// PromoteType and Session.Observe are printed as "extra" lines of the
// traced churn run; they are not metrics, because the other two
// workloads have no such calls and a timing must be measured on every
// workload.
//
// # Tracing
//
// End-to-end numbers come from untraced runs. A traced run measures
// the first half of its windows after the warm-up untraced (the
// latencies and the baseline) and traces the second half: the
// generator times each Inject and passes the injection record to the
// frame's reader through a per-ring FIFO (rings deliver in injection
// order), and the reader records, for one device in 16, a root span per
// packet (due time → HandlePacket return) with child spans gen.late,
// capture.inject, capture.wait and gateway.handle.<role>, which has the
// iotssp.assess child when the packet closed a capture. Every span
// carries the device's request ID (device index << 16 | join epoch);
// captures closing also get an enforce span. Spans stay in memory and
// are written to .bench_build/spans-<workload>.jsonl at the end. Self
// time is a span's duration less what its children cover;
// trace.self.<layer>_us is the mean self time per traced packet,
// trace.unattributed_ratio the share of root time no child covers (the
// harness's own bookkeeping between handler entry and the HandlePacket
// call), and trace.overhead_ratio the traced half's gateway CPU per
// packet over the untraced half's, less one.
//
// # Correctness checks
//
// After the rings drain: on join-storm and steady-enforce every
// assessed device's type and level must equal a direct Assess of its
// own setup capture on the same bank; every flow key any device can
// send is replayed through Controller.PacketIn, and an installed
// forward flow that the current rules would drop counts as fail_open
// (reported, counted as failed, never masked); and every frame
// injected must have been handled. A fail-open flow is a failure of
// the security property, not a cost, so it is the per-layer count
// audit.fail_open and part of failed rather than a bounded metric.
//
// The benchmark's own smoke test (cd gwbench && go test .) runs a short
// untraced join-storm and a short traced churn, and checks that every
// metric BENCHMARK.json names is printed with its unit and that the
// correctness checks ran and passed.
//
// # Calibration
//
// Offered rates are well below half of sat_pps on purpose. The lossless
// capture rings publish a partial block whenever a reader is parked, so
// in open loop most blocks carry one frame, every frame costs a reader
// wake-up, and eight blocks fill after eight frames; once the generator
// falls behind, Inject waits for a reader frame by frame. Open-loop
// capacity is therefore far below the closed-loop sat_pps. On the
// 2-core reference host (seed 1, 14 s open loop) steady-enforce kept
// every window's p50 near 18 µs at 40k–120k pkt/s, rose to 60–400 µs
// at 160k and grew a backlog at 200k (window p50 up to 50 ms), against
// a sat_pps of about 420k; join-storm kept p50 near 20 µs at 1000–1200
// joins/s and grew a backlog at 3000 joins/s, against a sat_pps of
// about 250k pkt/s (13k joins/s). The workloads offer 1200 joins/s
// (about 23k pkt/s), 80k pkt/s with 50 joins/s, and 40k pkt/s with 82
// churn events/s: the highest round rates that kept the p50 flat across
// seeds on a quiet host. BASELINE.md records the seed code's medians
// and quartiles at these rates.
//
// # Defects found while building the benchmark
//
// capture.Ring.Flush and Ring.Close publish the producer's current
// block without checking that the producer still owns it. On a full
// ring that block belongs to the consumer, so the producer cursor
// skips ahead, frames are delivered out of order, and frames can be
// lost at close. The harness therefore never calls Flush and closes
// the rings only after the readers have drained and parked; gatewayd's
// replay (capture.Start closes the fanout at end of input while
// readers may be behind) is exposed to it.
//
// # Evidence behind the workloads
//
// Measured on a 2-core host with the seed's soak and microbenchmarks
// before this benchmark existed: join throughput fell from 2.9k to 1.1k
// devices/s as the flow table grew from 24k to 44k flows, because the
// soak never expired flows; FlowTable.RemoveByMAC took 42% of CPU even
// with about 500 resident devices; and an 8 s closed-loop steady phase
// repeated only within ±11% (620k–776k pkt/s). Hence fixed table sizes
// (evictions, expiry on the virtual clock), workloads that separate
// invalidation-heavy from match-heavy traffic, and medians over windows.
package main
