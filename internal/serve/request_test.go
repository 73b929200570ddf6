package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// referenceRequest is tenant t's request payload as a serial 64-bit LCG
// draws it: one multiply and add per byte, each byte from bits 33-40 of
// the state. It is the specification fillRequest must match, however it
// produces the bytes.
func referenceRequest(seed int64, t, n int) []byte {
	x := uint64(seed)*0xBF58476D1CE4E5B9 + uint64(t)*0x94D049BB133111EB + 0x2545F4914F6CDD1D
	out := make([]byte, n)
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = byte(x >> 33)
	}
	return out
}

// TestFillRequestMatchesSerialLCG pins the request bytes: fillRequest must
// write exactly the serial generator's bytes for every (seed, tenant,
// length), over whatever the buffer held before. One 64 KiB payload is
// also pinned by digest, so a change to generator and reference together
// still fails.
func TestFillRequestMatchesSerialLCG(t *testing.T) {
	for _, c := range []struct {
		seed      int64
		tenant, n int
	}{
		{1, 0, 1},
		{1, 0, 1024},
		{1, 7, 1000},
		{2, 3, 4097},
		{7, 15, 64 << 10},
		{-3, 255, 8191},
	} {
		s := &Server{cfg: Config{Seed: c.seed}}
		req := bytes.Repeat([]byte{0xEE}, c.n)
		s.fillRequest(req, c.tenant)
		want := referenceRequest(c.seed, c.tenant, c.n)
		if i := firstDiff(req, want); i >= 0 {
			t.Errorf("seed %d tenant %d length %d: byte %d is %#02x, the serial generator gives %#02x",
				c.seed, c.tenant, c.n, i, req[i], want[i])
		}
	}
	sum := sha256.Sum256(referenceRequest(1, 0, 64<<10))
	if got, want := hex.EncodeToString(sum[:8]), pinnedRequestDigest; got != want {
		t.Fatalf("seed 1 tenant 0 64 KiB request digest %s, pinned %s", got, want)
	}
}

// pinnedRequestDigest is the first 8 bytes of the SHA-256 of seed 1,
// tenant 0's 64 KiB request.
const pinnedRequestDigest = "68b334262b33a503"

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
