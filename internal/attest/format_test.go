package attest

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/asn1"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/entropy"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

// fixedReport is a report with pinned measurements and report data.
func fixedReport(t testing.TB) *tdx.Report {
	t.Helper()
	mod := tdx.NewModule(nil, nil)
	mod.MeasureBoot("firmware", []byte("fw"))
	mod.MeasureBoot("monitor", []byte("mon"))
	r, err := mod.GenerateReport(bytes.Repeat([]byte{0xC5}, tdx.ReportDataSize))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func seededKey(t testing.TB, seed int64) *QuotingKey {
	t.Helper()
	qk, err := NewQuotingKeyRand(entropy.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return qk
}

// A quote is a TDX quote: ECDSA on P-256 over the SHA-256 of MRTD, the
// RTMRs and the report data, carried as a fixed-width 64-byte r||s that a
// stock ASN.1 verifier accepts once re-encoded.
func TestQuoteFormatIsTDX(t *testing.T) {
	qk := seededKey(t, 3)
	if qk.Public().Curve != elliptic.P256() {
		t.Fatalf("quoting key is on %s, want P-256", qk.Public().Curve.Params().Name)
	}
	r := fixedReport(t)
	q, err := qk.Sign(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.SigR) != 32 || len(q.SigS) != 32 {
		t.Fatalf("signature is %d+%d bytes, want 32+32", len(q.SigR), len(q.SigS))
	}
	h := sha256.New()
	h.Write(r.MRTD[:])
	for i := range r.RTMR {
		h.Write(r.RTMR[i][:])
	}
	h.Write(r.ReportData[:])
	der, err := asn1.Marshal(struct{ R, S *big.Int }{
		new(big.Int).SetBytes(q.SigR), new(big.Int).SetBytes(q.SigS),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ecdsa.VerifyASN1(qk.Public(), h.Sum(nil), der) {
		t.Fatal("ecdsa.VerifyASN1 refused the quote over SHA-256 of the report fields")
	}
	// The same r, left-padded to 48 bytes, is no longer a TDX signature.
	wide := *q
	wide.SigR = append(make([]byte, 16), q.SigR...)
	if _, err := Verify(qk.Public(), &wide, nil); err == nil {
		t.Fatal("a quote with a 48-byte SigR verified")
	}
}

// The key and signature a seeded stream yields are pinned: chaos outcomes
// depend on the quote's bytes, because a corrupt fault flips a byte of the
// plaintext server hello that carries it.
func TestQuoteKnownAnswer(t *testing.T) {
	const (
		wantX   = "4f3338332e249e4a7a6ae502c268db800f232b04fa80657b4b379b56229e6415"
		wantY   = "1d52f56b6439aa094baaf0993cb716b01af5afcea3dea6ca4964ce3afe2d6371"
		wantSig = "8da28d2464b8074a18fa80d1d8e643cc822347e0fb170bf23dec563b6a25f5a3" +
			"3865260c513efd44b45f8bba239b9a0dcc2982a8e53bbf1232ca69915a8eeb1c"
	)
	qk := seededKey(t, 7)
	pub := qk.Public()
	if got := fmt.Sprintf("%064x", pub.X); got != wantX {
		t.Errorf("public X = %s, want %s", got, wantX)
	}
	if got := fmt.Sprintf("%064x", pub.Y); got != wantY {
		t.Errorf("public Y = %s, want %s", got, wantY)
	}
	q, err := qk.Sign(fixedReport(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(append(q.SigR, q.SigS...)); got != wantSig {
		t.Errorf("SigR||SigS = %s, want %s", got, wantSig)
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// Every later draw of a seeded stream (X25519 shares, hello nonces) starts
// where the quoting key's read ended, so the read is exactly 72 bytes.
func TestQuotingKeyDraws72Bytes(t *testing.T) {
	cr := &countingReader{r: entropy.New(7)}
	if _, err := NewQuotingKeyRand(cr); err != nil {
		t.Fatal(err)
	}
	if cr.n != 72 {
		t.Fatalf("NewQuotingKeyRand read %d bytes, want 72", cr.n)
	}
}

// BenchmarkQuoteSignVerify signs one report into a quote and verifies it, a
// handshake's whole attestation cost on the host.
func BenchmarkQuoteSignVerify(b *testing.B) {
	qk := seededKey(b, 7)
	r := fixedReport(b)
	mrtd := r.MRTD
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := qk.Sign(r)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Verify(qk.Public(), q, &mrtd); err != nil {
			b.Fatal(err)
		}
	}
}
