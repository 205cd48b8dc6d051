package fleet

import (
	"bytes"
	"crypto/sha256"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
)

// testFingerprint builds a deterministic fingerprint whose vectors all
// carry seed (a non-negative integer below 2^22) in their DstIPCounter
// field, with rows distinct enough to survive the consecutive-duplicate
// dedup.
func testFingerprint(rows int, seed float64) fingerprint.Fingerprint {
	vs := make([]features.Vector, rows)
	for r := range vs {
		vs[r] = features.Vector(0).
			With(features.FeatDstIPCounter, uint64(seed)).
			With(features.FeatSize, uint64(r))
	}
	return fingerprint.FromVectors(vs)
}

// seedOf recovers the seed testFingerprint stamped into fp.
func seedOf(fp fingerprint.Fingerprint) float64 {
	return float64(fp.F[0].Field(features.FeatDstIPCounter))
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := map[frameType][]byte{
		ftHello:     []byte(`{"versions":[2],"gatewayId":"g1"}`),
		ftHeartbeat: nil,
		ftCounters:  encodeCounters(7, 2),
	}
	for ft, p := range payloads {
		buf.Reset()
		if err := writeFrame(&buf, ft, p); err != nil {
			t.Fatalf("writeFrame(%s): %v", ft, err)
		}
		gotT, gotP, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame(%s): %v", ft, err)
		}
		if gotT != ft {
			t.Errorf("frame type = %s, want %s", gotT, ft)
		}
		if !bytes.Equal(gotP, p) {
			t.Errorf("payload = %x, want %x", gotP, p)
		}
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	// A header claiming a payload beyond the bound must be rejected
	// before any allocation of that size.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, byte(ftBatch)}
	if _, _, err := readFrame(bytes.NewReader(hdr)); err != errFrameTooLarge {
		t.Fatalf("err = %v, want errFrameTooLarge", err)
	}
	if _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err != errFrameEmpty {
		t.Fatalf("zero-length frame err = %v, want errFrameEmpty", err)
	}
}

func TestReadFrameShortPayload(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, ftBatch, []byte{1, 2, 3, 4})
	short := buf.Bytes()[:buf.Len()-2]
	if _, _, err := readFrame(bytes.NewReader(short)); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
	if _, _, err := readFrame(io.MultiReader()); err == nil {
		t.Fatal("empty stream decoded without error")
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		offered []uint32
		want    uint32
		ok      bool
	}{
		{[]uint32{2}, 2, true},
		{[]uint32{99, 2}, 2, true},
		{[]uint32{1}, 0, false}, // V1 float rows are retired
		{[]uint32{99}, 0, false},
		{nil, 0, false},
	}
	for _, c := range cases {
		got, ok := negotiate(c.offered)
		if got != c.want || ok != c.ok {
			t.Errorf("negotiate(%v) = %d,%v want %d,%v", c.offered, got, ok, c.want, c.ok)
		}
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	fps := []fingerprint.Fingerprint{
		testFingerprint(1, 0),
		testFingerprint(7, 100),
		testFingerprint(23, 1e6),
		testFingerprint(3, 1<<22-1),
	}
	payload, err := encodeBatch(nil, fps)
	if err != nil {
		t.Fatalf("encodeBatch: %v", err)
	}
	// V2 layout: u16 count, then per fingerprint u16 rows and one
	// 8-byte word per row.
	want := 2
	for _, fp := range fps {
		want += 2 + 8*len(fp.F)
	}
	if len(payload) != want {
		t.Fatalf("batch is %d bytes, want %d", len(payload), want)
	}
	got, err := decodeBatch(payload)
	if err != nil {
		t.Fatalf("decodeBatch: %v", err)
	}
	if len(got) != len(fps) {
		t.Fatalf("decoded %d fingerprints, want %d", len(got), len(fps))
	}
	for i := range fps {
		// Only F travels; F′ is re-derived on decode and must land on
		// the same bytes the sender computed locally.
		if !reflect.DeepEqual(got[i].F, fps[i].F) {
			t.Errorf("fingerprint %d: F mismatch", i)
		}
		if got[i].FPrime != fps[i].FPrime {
			t.Errorf("fingerprint %d: re-derived F' mismatch", i)
		}
		if got[i].UniqueCount != fps[i].UniqueCount {
			t.Errorf("fingerprint %d: UniqueCount = %d, want %d", i, got[i].UniqueCount, fps[i].UniqueCount)
		}
	}
}

func TestBatchCodecRejectsAbuse(t *testing.T) {
	if _, err := encodeBatch(nil, nil); err == nil {
		t.Error("empty batch encoded")
	}
	if _, err := encodeBatch(nil, []fingerprint.Fingerprint{{}}); err == nil {
		t.Error("zero-row fingerprint encoded")
	}
	if _, err := decodeBatch(nil); err == nil {
		t.Error("nil payload decoded")
	}
	if _, err := decodeBatch([]byte{0, 0}); err == nil {
		t.Error("zero-count batch decoded")
	}
	// Count claims more fingerprints than the payload carries.
	payload, _ := encodeBatch(nil, []fingerprint.Fingerprint{testFingerprint(2, 0)})
	payload[1] = 9
	if _, err := decodeBatch(payload); err == nil {
		t.Error("count/payload mismatch decoded")
	}
	// Trailing junk after a valid batch.
	payload, _ = encodeBatch(nil, []fingerprint.Fingerprint{testFingerprint(2, 0)})
	if _, err := decodeBatch(append(payload, 0xff)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestCountersCodec(t *testing.T) {
	a, u, err := decodeCounters(encodeCounters(123456, 789))
	if err != nil || a != 123456 || u != 789 {
		t.Fatalf("round trip = %d,%d,%v", a, u, err)
	}
	if _, _, err := decodeCounters([]byte{1, 2, 3}); err == nil {
		t.Fatal("short counters decoded")
	}
}

func TestModelPushCodec(t *testing.T) {
	model := []byte("serialized bank bytes")
	sum := sha256.Sum256(model)
	sha, got, err := decodeModelPush(encodeModelPush(sum, model))
	if err != nil {
		t.Fatalf("decodeModelPush: %v", err)
	}
	if sha != sum || !bytes.Equal(got, model) {
		t.Fatal("model push round trip mismatch")
	}
	if _, _, err := decodeModelPush([]byte("short")); err == nil {
		t.Fatal("short model push decoded")
	}
}

// TestHelloV1Refused checks that a gateway offering only the retired
// V1 (float-row batches) gets the no-shared-version error frame and a
// closed connection, and never registers.
func TestHelloV1Refused(t *testing.T) {
	reg := NewRegistry(time.Hour, nil)
	srv, err := NewServer(ServerConfig{Registry: reg, Ingest: func([]fingerprint.Fingerprint) int { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeFrame(conn, ftHello, []byte(`{"versions":[1],"gatewayId":"g-v1"}`)); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("reading the refusal: %v", err)
	}
	if ft != ftError || !strings.Contains(string(payload), "no shared protocol version") {
		t.Fatalf("got %s %q, want an error frame refusing the version", ft, payload)
	}
	if _, _, err := readFrame(conn); err == nil {
		t.Fatal("connection still open after the refusal")
	}
	if len(reg.IDs()) != 0 {
		t.Fatalf("V1 gateway registered: %+v", reg.IDs())
	}
}
