package capture

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The ring mirrors AF_PACKET's TPACKET_V3 mmap layout in pure Go:
// a fixed arena of fixed-size blocks, each owned at any instant by
// either the producer (the kernel side in a real socket) or the
// consumer (user space), with ownership flipping through one atomic
// status word. The producer appends frames into its current block and
// publishes the block when it fills, when a reader is parked waiting,
// or when the retire timeout elapses (tp_retire_blk_tov); the consumer
// walks a published block's frames without any lock and releases the
// whole block back in one store. A full ring never blocks the producer
// unless it asked for lossless delivery: frames are dropped and
// counted, exactly the kernel's behaviour when user space falls
// behind.

// Block ownership states (tp_block_status).
const (
	blockProducer uint32 = iota // being filled; consumer must not touch
	blockConsumer               // published; producer must not touch
)

// Per-frame header inside a block: 8-byte unix-nanos timestamp then a
// 4-byte little-endian length, with the whole frame padded to 8 bytes
// (tpacket3_hdr's tp_next_offset alignment).
const frameHeaderLen = 12

// Ring geometry defaults: 8 blocks of 64 KiB is enough for ~3k typical
// setup-phase frames in flight per reader.
const (
	DefaultBlockSize = 64 << 10
	DefaultBlocks    = 8
)

// ErrFrameTooBig reports a frame larger than one block.
var ErrFrameTooBig = errors.New("capture: frame exceeds ring block size")

type ringBlock struct {
	status atomic.Uint32
	buf    []byte
	// Producer-side fill state; read by the consumer only after the
	// status word is flipped (the atomic store/load pair orders them).
	w       int
	nframes int
	firstAt time.Time
}

// RingConfig tunes one ring (zero values select the defaults).
type RingConfig struct {
	// Blocks and BlockSize fix the arena geometry.
	Blocks    int
	BlockSize int
	// Retire bounds how long a partially filled block may hold frames
	// back from the consumer (default 10ms). Checked on Inject — an
	// idle producer publishes on Flush or Close instead.
	Retire time.Duration
	// Lossless makes Inject wait for the consumer instead of dropping
	// when the ring is full. Replay and conformance runs use it; live
	// capture keeps the kernel's drop semantics.
	Lossless bool
}

func (c RingConfig) withDefaults() RingConfig {
	if c.Blocks <= 0 {
		c.Blocks = DefaultBlocks
	}
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.Retire <= 0 {
		c.Retire = 10 * time.Millisecond
	}
	return c
}

// Ring is one producer→consumer block ring. Any number of goroutines
// may Inject (a short mutex serializes the fill, as the kernel's
// per-CPU queue discipline does); exactly one goroutine must Recv.
type Ring struct {
	cfg    RingConfig
	blocks []ringBlock

	// Producer state, under mu.
	mu sync.Mutex
	pi int

	// Consumer state, single-goroutine.
	ci   int
	cur  int // block being read, -1 when none
	roff int
	rem  int

	// wake signals the consumer that a block was published (or the
	// ring closed); space signals producers that a block was released.
	// Both are capacity-1 so a signal sent while nobody waits is kept.
	wake  chan struct{}
	space chan struct{}

	waiting atomic.Int32
	closed  atomic.Bool
	drops   atomic.Uint64
	frames  atomic.Uint64
}

// NewRing allocates the block arena.
func NewRing(cfg RingConfig) *Ring {
	cfg = cfg.withDefaults()
	r := &Ring{
		cfg:    cfg,
		blocks: make([]ringBlock, cfg.Blocks),
		cur:    -1,
		wake:   make(chan struct{}, 1),
		space:  make(chan struct{}, 1),
	}
	for i := range r.blocks {
		r.blocks[i].buf = make([]byte, cfg.BlockSize)
	}
	return r
}

// Inject appends one frame on the producer side. With a full ring it
// drops (counted) unless the ring is lossless, in which case it waits
// for the consumer to release a block. Dropped frames return nil: the
// producer is not expected to care, the drop counter is the record.
func (r *Ring) Inject(ts time.Time, frame []byte) error {
	need := (frameHeaderLen + len(frame) + 7) &^ 7
	if need > r.cfg.BlockSize {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooBig, len(frame), r.cfg.BlockSize)
	}
	r.mu.Lock()
	for {
		if r.closed.Load() {
			r.mu.Unlock()
			return ErrClosed
		}
		b := &r.blocks[r.pi]
		if b.status.Load() == blockProducer {
			if b.w+need > len(b.buf) {
				r.publishLocked(b)
				continue
			}
			if b.nframes == 0 {
				b.firstAt = time.Now()
			}
			putFrame(b.buf[b.w:], ts, frame)
			b.w += need
			b.nframes++
			r.frames.Add(1)
			// Publish early when a reader is parked (latency) or the
			// block has been brewing past the retire bound.
			if r.waiting.Load() > 0 || time.Since(b.firstAt) >= r.cfg.Retire {
				r.publishLocked(b)
			}
			r.mu.Unlock()
			return nil
		}
		// Ring full: every block is published and unread.
		if !r.cfg.Lossless {
			r.drops.Add(1)
			r.mu.Unlock()
			return nil
		}
		r.mu.Unlock()
		select {
		case <-r.space:
		case <-time.After(time.Millisecond):
			// Re-check closed; also covers a space signal consumed by
			// a sibling producer.
		}
		r.mu.Lock()
	}
}

func putFrame(dst []byte, ts time.Time, frame []byte) {
	n := uint64(ts.UnixNano())
	for i := 0; i < 8; i++ {
		dst[i] = byte(n >> (8 * i))
	}
	l := uint32(len(frame))
	dst[8] = byte(l)
	dst[9] = byte(l >> 8)
	dst[10] = byte(l >> 16)
	dst[11] = byte(l >> 24)
	copy(dst[frameHeaderLen:], frame)
}

// publishLocked flips the current block to the consumer and advances
// the producer cursor. Empty blocks are not published.
func (r *Ring) publishLocked(b *ringBlock) {
	if b.nframes == 0 {
		return
	}
	b.status.Store(blockConsumer)
	r.pi = (r.pi + 1) % len(r.blocks)
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// publishOwnedLocked publishes the producer's current block only while
// the producer still owns it. On a full ring the cursor rests on a
// block the consumer holds; publishing that one again would advance the
// cursor past unread blocks, reordering frames and losing them at
// close.
func (r *Ring) publishOwnedLocked() {
	if b := &r.blocks[r.pi]; b.status.Load() == blockProducer {
		r.publishLocked(b)
	}
}

// Flush publishes the partially filled current block, if any.
func (r *Ring) Flush() {
	r.mu.Lock()
	r.publishOwnedLocked()
	r.mu.Unlock()
}

// Close publishes any partial block and marks the ring closed: Inject
// fails with ErrClosed, Recv drains what was published and then
// returns io.EOF. Safe to call more than once and from either side.
func (r *Ring) Close() error {
	r.mu.Lock()
	if !r.closed.Load() {
		r.publishOwnedLocked()
		r.closed.Store(true)
	}
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
	return nil
}

// Recv returns the next frame. The returned Frame.Data aliases the
// block buffer and is valid only until the next Recv call. Blocks
// until a frame arrives; returns io.EOF once the ring is closed and
// fully drained.
func (r *Ring) Recv() (Frame, error) {
	for {
		if r.rem > 0 {
			b := &r.blocks[r.cur]
			ts, data, adv := getFrame(b.buf[r.roff:])
			r.roff += adv
			r.rem--
			return Frame{Time: ts, Data: data}, nil
		}
		if r.cur >= 0 {
			// Whole block consumed: hand it back in one store.
			b := &r.blocks[r.cur]
			b.w = 0
			b.nframes = 0
			b.status.Store(blockProducer)
			r.cur = -1
			select {
			case r.space <- struct{}{}:
			default:
			}
		}
		b := &r.blocks[r.ci]
		if b.status.Load() == blockConsumer {
			r.cur = r.ci
			r.ci = (r.ci + 1) % len(r.blocks)
			r.roff = 0
			r.rem = b.nframes
			continue
		}
		if r.closed.Load() {
			// Close publishes before setting closed (both under mu), so
			// one status re-check after observing closed cannot miss a
			// final block.
			if b.status.Load() == blockConsumer {
				continue
			}
			return Frame{}, io.EOF
		}
		// Park until a block is published. The re-check between
		// registering as waiting and sleeping, plus the buffered wake
		// slot, closes the lost-wakeup window.
		r.waiting.Add(1)
		if b.status.Load() == blockConsumer || r.closed.Load() {
			r.waiting.Add(-1)
			continue
		}
		<-r.wake
		r.waiting.Add(-1)
	}
}

func getFrame(src []byte) (time.Time, []byte, int) {
	var n uint64
	for i := 0; i < 8; i++ {
		n |= uint64(src[i]) << (8 * i)
	}
	l := int(uint32(src[8]) | uint32(src[9])<<8 | uint32(src[10])<<16 | uint32(src[11])<<24)
	adv := (frameHeaderLen + l + 7) &^ 7
	return time.Unix(0, int64(n)).UTC(), src[frameHeaderLen : frameHeaderLen+l], adv
}

// Drops returns the number of frames shed because the consumer fell
// behind a lossy ring.
func (r *Ring) Drops() uint64 { return r.drops.Load() }

// Frames returns the number of frames accepted by Inject.
func (r *Ring) Frames() uint64 { return r.frames.Load() }
