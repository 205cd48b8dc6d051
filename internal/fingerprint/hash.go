package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// Key is the canonical content hash of a Fingerprint, usable as a map
// key. Two fingerprints with the same Key are identical in F, F′ and
// UniqueCount; the identification cache relies on this to guarantee
// that a cached answer is bit-identical to what the classifier bank
// would have produced for the probe.
type Key [sha256.Size]byte

// keyBufPool recycles the serialization buffer CanonicalKey hashes
// over, so the steady-state cache-probe path never allocates. Pooling a
// *[]byte (not a []byte) keeps the Put interface-boxing free.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// CanonicalKey hashes the fingerprint into its canonical Key. The hash
// covers the full variable-length F sequence — not just F′ — because
// the edit-distance discrimination stage reads F, so two fingerprints
// that agree on F′ but differ in their tail could still identify
// differently. Every packed vector word is hashed little-endian, after
// a length prefix so F's words cannot run into F′'s. F′ and
// UniqueCount are folded in too: they are pure functions of F for
// every fingerprint FromVectors builds, but callers may rewrite them
// (the F′-length ablation truncates F′ in place), and a cached answer
// must never be served for a different classifier input.
//
// The byte stream is assembled in a pooled buffer and hashed in one
// sha256.Sum256 call, so the digest never escapes and the cache-probe
// path allocates nothing.
func (fp *Fingerprint) CanonicalKey() Key {
	bp := keyBufPool.Get().(*[]byte)
	buf := (*bp)[:0]

	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(fp.F)))
	for _, v := range fp.F {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for _, v := range fp.FPrime {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(fp.UniqueCount))

	k := Key(sha256.Sum256(buf))
	*bp = buf
	keyBufPool.Put(bp)
	return k
}
