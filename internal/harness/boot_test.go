package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/mem"
)

// memorySum hashes every frame of physical memory in frame order. Frames
// are read with ReadPhys, so hashing backs none of them.
func memorySum(t *testing.T, p *mem.Physical) string {
	t.Helper()
	h := sha256.New()
	buf := make([]byte, mem.PageSize)
	for f := mem.Frame(0); uint64(f) < p.NumFrames(); f++ {
		if err := p.ReadPhys(f.Base(), buf); err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBootedWorldPinned pins the physical memory of a freshly booted world,
// Erebor and native, byte for byte: the direct map, the monitor image and
// stacks, the loaded kernel and every page-table page. Boot charges its own
// virtual cycles, so how the host builds these bytes is free to change; the
// bytes are not.
func TestBootedWorldPinned(t *testing.T) {
	for _, c := range []struct {
		mode      kernel.Mode
		sum       string
		allocated uint64
	}{
		{kernel.ModeErebor, "5727d8cf0542b7b46384817a2549954693f2bc128a15586d33d01e0f21c36f73", 74},
		{kernel.ModeNative, "0b739ec92457ffdcecbb61eda039a56a0057a865f8c3f23b0cbe75befea94e9e", 35},
	} {
		w, err := NewWorld(WorldConfig{Mode: c.mode, MemMB: 64})
		if err != nil {
			t.Fatal(err)
		}
		if got := memorySum(t, w.Phys); got != c.sum {
			t.Errorf("%v: memory sha256 = %s, want %s", c.mode, got, c.sum)
		}
		if got := w.Phys.AllocatedFrames(); got != c.allocated {
			t.Errorf("%v: %d frames allocated at boot, want %d", c.mode, got, c.allocated)
		}
	}
}

// BenchmarkNewWorld measures host time and allocations of one world boot:
// the two-stage verified boot every Erebor world runs, at the test size and
// at serve's default size, and the native baseline.
func BenchmarkNewWorld(b *testing.B) {
	for _, c := range []struct {
		mode  kernel.Mode
		memMB uint64
	}{{kernel.ModeErebor, 64}, {kernel.ModeErebor, 256}, {kernel.ModeNative, 64}} {
		b.Run(fmt.Sprintf("%v-%dMB", c.mode, c.memMB), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewWorld(WorldConfig{Mode: c.mode, MemMB: c.memMB}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
