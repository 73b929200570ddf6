package kernel

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestKernelImagePinned pins the synthetic kernel image byte for byte for
// every option set the repository boots, scans or attacks with. The
// monitor measures and scans these bytes, so a change to how the image is
// assembled must leave them exactly as they were.
func TestKernelImagePinned(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  ImageOptions
		want string
	}{
		{"raw", ImageOptions{},
			"d4ca209f98f5bb480efbcda4d1ee4d4f051a16d757bf81fbe0012cc22463de97"},
		{"instrumented", ImageOptions{Instrumented: true},
			"81d82616484e152f4671f2ef22fc201d7602a0fd38adb7e85abcef64207f0070"},
		{"instrumented-hidden-wrmsr", ImageOptions{Instrumented: true, HideInImmediate: true},
			"29847dd6bbc8103da6d565adea1e0965e85c2c49bc617b0bbd2d8d47d35a158c"},
		{"raw-128KB", ImageOptions{TextKB: 128},
			"4555133be7fd712c8d29b4b7e5b2df35736385a1d97107a296e6fb660e9cc46b"},
	} {
		sum := sha256.Sum256(BuildKernelImage(c.opt))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: image sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}
