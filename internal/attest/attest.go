// Package attest implements CVM remote attestation for the simulation: a
// per-machine quoting key (standing in for Intel's provisioning-rooted
// quoting enclave) signs TDREPORTs into quotes, and verifiers check the
// signature and the expected boot measurement. Erebor's monitor is the
// only component that can obtain reports (it owns the tdcall choke point),
// which is what prevents the untrusted OS from impersonating it (claim C5).
//
// The quote is signed the way a TDX quoting enclave signs it: ECDSA on
// P-256 over SHA-256 (DCAP quote v4, attestation key type 2), with the
// signature as a fixed 64-byte r||s. The measurements it covers stay
// SHA-384, as TDX's are.
package attest

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"github.com/asterisc-release/erebor-go/internal/tdx"
)

// Quote is a signed TDREPORT.
type Quote struct {
	Report tdx.Report
	SigR   []byte
	SigS   []byte
}

// QuotingKey is the simulated CPU's attestation signing key.
type QuotingKey struct {
	priv *ecdsa.PrivateKey
}

// scalarWidth is the byte width of a P-256 scalar, and so of a quote's SigR
// and of its SigS: the two make TDX's 64-byte r||s signature.
const scalarWidth = 32

// keySeedBytes is how many bytes NewQuotingKeyRand reads: the 32 scalar
// bytes plus 40 extra before the mod reduction, so the bias against any
// particular scalar is ~2^-320. The count fixes where every later draw of a
// seeded stream (X25519 shares, hello nonces) starts.
const keySeedBytes = 72

// NewQuotingKeyRand generates a P-256 quoting key from r (nil = OS CSPRNG).
// The scalar is derived from the bytes read — not via ecdsa.GenerateKey,
// whose byte consumption from the reader is deliberately randomized by the
// standard library — so a deterministic reader yields a deterministic key
// (how seeded chaos runs replay identical handshake frames byte for byte).
func NewQuotingKeyRand(r io.Reader) (*QuotingKey, error) {
	if r == nil {
		r = rand.Reader
	}
	curve := elliptic.P256()
	buf := make([]byte, keySeedBytes)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("attest: generating quoting key: %w", err)
	}
	d := scalarFrom(curve, buf)
	x, y := curve.ScalarBaseMult(d.FillBytes(make([]byte, scalarWidth)))
	return &QuotingKey{priv: &ecdsa.PrivateKey{
		D:         d,
		PublicKey: ecdsa.PublicKey{Curve: curve, X: x, Y: y},
	}}, nil
}

// scalarFrom reduces b into [1, N-1] for curve's order N.
func scalarFrom(curve elliptic.Curve, b []byte) *big.Int {
	nMinus1 := new(big.Int).Sub(curve.Params().N, big.NewInt(1))
	k := new(big.Int).SetBytes(b)
	k.Mod(k, nMinus1)
	return k.Add(k, big.NewInt(1))
}

// Public returns the verification key a client would obtain from the
// hardware vendor's provisioning service.
func (q *QuotingKey) Public() *ecdsa.PublicKey { return &q.priv.PublicKey }

// reportDigest is the SHA-256 the quote signs: MRTD, the four RTMRs and the
// report data, in that order.
func reportDigest(r *tdx.Report) []byte {
	h := sha256.New()
	h.Write(r.MRTD[:])
	for i := range r.RTMR {
		h.Write(r.RTMR[i][:])
	}
	h.Write(r.ReportData[:])
	return h.Sum(nil)
}

// Sign turns a valid TDREPORT into a quote. Reports not produced by the
// TDX module (Valid()==false, i.e. forged structs) are refused — the
// hardware would never sign them.
//
// The nonce is derived from the private key and the digest, so the same
// (key, report) always yields the same signature bytes. No RNG in the
// signing path means no nonce-reuse risk — and quote bytes become a pure
// function of the quoting key, which is what lets seeded chaos runs corrupt
// handshake frames identically across processes.
func (q *QuotingKey) Sign(r *tdx.Report) (*Quote, error) {
	if r == nil || !r.Valid() {
		return nil, errors.New("attest: refusing to sign a report not produced by the TDX module")
	}
	digest := reportDigest(r)
	curve := q.priv.Curve
	N := curve.Params().N
	priv := q.priv.D.FillBytes(make([]byte, scalarWidth))
	z := new(big.Int).SetBytes(digest) // 256-bit digest, 256-bit order: no truncation
	var rr, ss *big.Int
	for ctr := uint64(0); ; ctr++ {
		k := scalarFrom(curve, deriveNonce(priv, digest, ctr))
		x, _ := curve.ScalarBaseMult(k.FillBytes(make([]byte, scalarWidth)))
		rr = new(big.Int).Mod(x, N)
		if rr.Sign() == 0 {
			continue
		}
		kinv := new(big.Int).ModInverse(k, N)
		ss = new(big.Int).Mul(rr, q.priv.D)
		ss.Add(ss, z)
		ss.Mul(ss, kinv)
		ss.Mod(ss, N)
		if ss.Sign() != 0 {
			break
		}
	}
	// Fixed-width serialization: big.Int.Bytes() strips leading zeros, which
	// would make quote (and thus handshake frame) lengths vary run to run.
	// Deterministic frame lengths are what keep seeded fault-injection
	// schedules aligned across replays, so pad to the scalar width.
	return &Quote{
		Report: *r,
		SigR:   rr.FillBytes(make([]byte, scalarWidth)),
		SigS:   ss.FillBytes(make([]byte, scalarWidth)),
	}, nil
}

// deriveNonce hashes the private scalar, the message digest and a retry
// counter into an ECDSA nonce candidate. SHA-512 gives twice the scalar's
// width, so the reduction mod N leaves no usable bias. It stands in for RFC
// 6979's HMAC construction, which crypto/ecdsa offers only from Go 1.24,
// newer than this module's Go 1.22.
func deriveNonce(priv, digest []byte, ctr uint64) []byte {
	h := sha512.New()
	h.Write([]byte("attest-deterministic-nonce"))
	h.Write(priv)
	h.Write(digest)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], ctr)
	h.Write(b[:])
	return h.Sum(nil)
}

// Verify checks the quote signature against pub and, if expectedMRTD is
// non-nil, that the boot measurement matches. Returns the embedded report.
func Verify(pub *ecdsa.PublicKey, q *Quote, expectedMRTD *[tdx.MeasurementSize]byte) (*tdx.Report, error) {
	if q == nil {
		return nil, errors.New("attest: nil quote")
	}
	if !verifyRaw(pub, &q.Report, q.SigR, q.SigS) {
		return nil, errors.New("attest: quote signature invalid")
	}
	if expectedMRTD != nil && q.Report.MRTD != *expectedMRTD {
		return nil, fmt.Errorf("attest: MRTD mismatch: got %x want %x",
			q.Report.MRTD[:8], expectedMRTD[:8])
	}
	return &q.Report, nil
}

// verifyRaw accepts only a fixed-width r||s, the one signature layout a TDX
// quote carries, that verifies over the report's digest.
func verifyRaw(pub *ecdsa.PublicKey, r *tdx.Report, sigR, sigS []byte) bool {
	if len(sigR) != scalarWidth || len(sigS) != scalarWidth {
		return false
	}
	rr := new(big.Int).SetBytes(sigR)
	ss := new(big.Int).SetBytes(sigS)
	return ecdsa.Verify(pub, reportDigest(r), rr, ss)
}
