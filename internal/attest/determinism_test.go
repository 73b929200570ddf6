package attest

import (
	"bytes"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/entropy"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

// Quoting keys drawn from equal seeded sources must be identical, and the
// deterministic signing path must produce identical signature bytes for the
// same (key, report) — both are load-bearing for byte-identical chaos runs
// (corrupt faults mutate quote bytes inside server hellos, and the decode
// outcome depends on the byte under the flip).
func TestSeededQuotingKeyDeterministic(t *testing.T) {
	a, err := NewQuotingKeyRand(entropy.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewQuotingKeyRand(entropy.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Public().X.Cmp(b.Public().X) != 0 || a.Public().Y.Cmp(b.Public().Y) != 0 {
		t.Fatal("equal seeds produced different quoting keys")
	}
	c, err := NewQuotingKeyRand(entropy.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if a.Public().X.Cmp(c.Public().X) == 0 {
		t.Fatal("different seeds produced the same quoting key")
	}
}

func TestSignDeterministic(t *testing.T) {
	qk, err := NewQuotingKeyRand(entropy.New(7))
	if err != nil {
		t.Fatal(err)
	}
	mod := tdx.NewModule(nil, nil)
	mod.MeasureBoot("fw", []byte("firmware"))
	report, err := mod.GenerateReport(bytes.Repeat([]byte{0xAB}, tdx.ReportDataSize))
	if err != nil {
		t.Fatal(err)
	}
	q1, err := qk.Sign(report)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := qk.Sign(report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q1.SigR, q2.SigR) || !bytes.Equal(q1.SigS, q2.SigS) {
		t.Fatal("signing the same report twice produced different signatures")
	}
	if _, err := Verify(qk.Public(), q1, nil); err != nil {
		t.Fatalf("deterministic signature does not verify: %v", err)
	}
}

// The OS-entropy path (nil reader) must still mint distinct, working keys.
func TestOSEntropyKeysDistinct(t *testing.T) {
	a, err := NewQuotingKeyRand(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewQuotingKeyRand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Public().X.Cmp(b.Public().X) == 0 {
		t.Fatal("two OS-entropy quoting keys collided")
	}
}
