package secchan

import (
	"bytes"
	"crypto/cipher"
	"encoding/binary"
	"testing"
)

// refSeal is the record construction sealAt must reproduce byte for byte:
// the length prefix and payload copied into one buffer, that copied into a
// zero-padded one, and the padded record sealed into a third.
func refSeal(aead cipher.AEAD, seq uint64, msg []byte, block int) []byte {
	raw := make([]byte, 4+len(msg))
	binary.BigEndian.PutUint32(raw, uint32(len(msg)))
	copy(raw[4:], msg)
	total := ((len(raw) + block - 1) / block) * block
	padded := make([]byte, total)
	copy(padded, raw)
	return aead.Seal(nil, nonceFor(seq), padded, nil)
}

func recordKey() []byte { return bytes.Repeat([]byte{0x5A}, 32) }

func TestSealAtMatchesReference(t *testing.T) {
	key := recordKey()
	ref, err := newAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range []int{64, 256, 4096} {
		c, err := NewConn(nil, key, key, block)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, block - 4, block - 3, block, 3*block + 5} {
			msg := make([]byte, n)
			for i := range msg {
				msg[i] = byte(i*7 + n)
			}
			for _, seq := range []uint64{0, 9} {
				got := c.sealAt(seq, msg)
				if want := refSeal(ref, seq, msg, block); !bytes.Equal(got, want) {
					t.Fatalf("block %d, %d-byte payload, seq %d: sealAt differs from the reference record", block, n, seq)
				}
				if (len(got)-gcmTagSize)%block != 0 {
					t.Fatalf("block %d, %d-byte payload: %d-byte record is not padded to the block", block, n, len(got))
				}
				pt, err := c.openAt(seq, got)
				if err != nil || !bytes.Equal(pt, msg) {
					t.Fatalf("block %d, %d-byte payload, seq %d: record does not open to its payload (%v)", block, n, seq, err)
				}
			}
		}
	}
}

var sealSink []byte

// A record is sealed in the buffer pad fills, so sealing one costs that
// buffer and the nonce, nothing more.
func TestSealAtAllocs(t *testing.T) {
	c, err := NewConn(nil, recordKey(), recordKey(), DefaultPadBlock)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 1024)
	if n := testing.AllocsPerRun(100, func() { sealSink = c.sealAt(3, msg) }); n > 2 {
		t.Fatalf("sealAt made %.0f allocations per record, want at most 2", n)
	}
}

// BenchmarkSealOpen seals and opens one 1 KiB record at the default 4 KiB
// padding block.
func BenchmarkSealOpen(b *testing.B) {
	c, err := NewConn(nil, recordKey(), recordKey(), DefaultPadBlock)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 1024)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct := c.sealAt(uint64(i), msg)
		if _, err := c.openAt(uint64(i), ct); err != nil {
			b.Fatal(err)
		}
	}
}
