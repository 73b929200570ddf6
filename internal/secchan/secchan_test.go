package secchan

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/asterisc-release/erebor-go/internal/attest"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

// testIssuer implements ReportIssuer over a real TDX module + quoting key.
type testIssuer struct {
	mod *tdx.Module
	qk  *attest.QuotingKey
}

func (ti testIssuer) IssueQuote(rd [tdx.ReportDataSize]byte) (*attest.Quote, error) {
	r, err := ti.mod.GenerateReport(rd[:])
	if err != nil {
		return nil, err
	}
	return ti.qk.Sign(r)
}

func newIssuer(t *testing.T) (testIssuer, [tdx.MeasurementSize]byte) {
	t.Helper()
	qk, err := attest.NewQuotingKeyRand(nil)
	if err != nil {
		t.Fatal(err)
	}
	mod := tdx.NewModule(mem.NewPhysical(1<<20), nil)
	mod.MeasureBoot("monitor", []byte("the-open-source-monitor"))
	return testIssuer{mod, qk}, mod.MRTD()
}

func TestHandshakeAndRecords(t *testing.T) {
	issuer, mrtd := newIssuer(t)
	clientTr, serverTr := NewMemPipe()

	hello, priv, err := NewClientHelloRand(nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, serverKeys, err := ServerHandshakeRand(nil, hello, issuer)
	if err != nil {
		t.Fatal(err)
	}
	clientKeys, err := ClientFinish(hello, priv, sh, issuer.qk.Public(), &mrtd)
	if err != nil {
		t.Fatal(err)
	}
	cConn, err := clientKeys.Conn(clientTr, 256)
	if err != nil {
		t.Fatal(err)
	}
	sConn, err := serverKeys.Conn(serverTr, 256)
	if err != nil {
		t.Fatal(err)
	}

	// Client -> server -> client round trip.
	if err := cConn.Send([]byte("query: patient 4411")); err != nil {
		t.Fatal(err)
	}
	got, err := sConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "query: patient 4411" {
		t.Fatalf("server got %q", got)
	}
	if err := sConn.Send([]byte("result: confidential")); err != nil {
		t.Fatal(err)
	}
	back, err := cConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != "result: confidential" {
		t.Fatalf("client got %q", back)
	}
}

func TestRecordsArePaddedAndOpaque(t *testing.T) {
	issuer, mrtd := newIssuer(t)
	clientTr, serverTr := NewMemPipe()
	var wire [][]byte
	clientTr.Tap = func(f []byte) { wire = append(wire, f) }

	hello, priv, _ := NewClientHelloRand(nil)
	sh, sKeys, err := ServerHandshakeRand(nil, hello, issuer)
	if err != nil {
		t.Fatal(err)
	}
	cKeys, err := ClientFinish(hello, priv, sh, issuer.qk.Public(), &mrtd)
	if err != nil {
		t.Fatal(err)
	}
	cConn, _ := cKeys.Conn(clientTr, 512)
	sConn, _ := sKeys.Conn(serverTr, 512)

	secret := []byte("SSN 123-45-6789")
	if err := cConn.Send(secret); err != nil {
		t.Fatal(err)
	}
	if _, err := sConn.Recv(); err != nil {
		t.Fatal(err)
	}
	if len(wire) != 1 {
		t.Fatalf("wire frames = %d", len(wire))
	}
	if bytes.Contains(wire[0], secret) {
		t.Fatal("plaintext on the wire")
	}
	// Padding: ciphertext = padded-plaintext + GCM tag; plaintext padded to
	// a 512 multiple.
	if pt := len(wire[0]) - 16; pt%512 != 0 {
		t.Fatalf("padded length %d not a multiple of 512", pt)
	}
	// Two different-size messages in the same pad class produce identical
	// wire lengths (size channel closed).
	wire = nil
	_ = cConn.Send([]byte("a"))
	_ = cConn.Send(bytes.Repeat([]byte("b"), 400))
	if len(wire) != 2 || len(wire[0]) != len(wire[1]) {
		t.Fatalf("padding leaks size: %d vs %d", len(wire[0]), len(wire[1]))
	}
}

func TestTamperedRecordRejected(t *testing.T) {
	issuer, mrtd := newIssuer(t)
	clientTr, serverTr := NewMemPipe()
	hello, priv, _ := NewClientHelloRand(nil)
	sh, sKeys, _ := ServerHandshakeRand(nil, hello, issuer)
	cKeys, err := ClientFinish(hello, priv, sh, issuer.qk.Public(), &mrtd)
	if err != nil {
		t.Fatal(err)
	}
	cConn, _ := cKeys.Conn(clientTr, 0)
	sConn, _ := sKeys.Conn(serverTr, 0)
	if err := cConn.Send([]byte("data")); err != nil {
		t.Fatal(err)
	}
	// The proxy flips a bit in transit.
	f, _ := serverTr.Recv()
	f[5] ^= 1
	_ = prepend(serverTr, f)
	if _, err := sConn.Recv(); err == nil {
		t.Fatal("tampered record accepted")
	}
}

// prepend pushes a frame back onto a MemPipe's inbound queue.
func prepend(p *MemPipe, f []byte) error {
	p.in.frames = append([][]byte{f}, p.in.frames...)
	return nil
}

func TestPadUnpadProperty(t *testing.T) {
	f := func(data []byte, blockSel uint8) bool {
		block := 64 << (blockSel % 4) // 64..512
		padded := pad(data, block)
		if len(padded)%block != 0 {
			return false
		}
		got, err := unpad(padded)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHKDFDeterministicAndDirectional(t *testing.T) {
	c1, s1 := DeriveKeys([]byte("shared"), []byte("transcript"))
	c2, s2 := DeriveKeys([]byte("shared"), []byte("transcript"))
	if !bytes.Equal(c1, c2) || !bytes.Equal(s1, s2) {
		t.Fatal("key derivation not deterministic")
	}
	if bytes.Equal(c1, s1) {
		t.Fatal("direction keys identical")
	}
	c3, _ := DeriveKeys([]byte("shared"), []byte("other"))
	if bytes.Equal(c1, c3) {
		t.Fatal("transcript not bound into keys")
	}
}

func TestProxySeesOnlyCiphertext(t *testing.T) {
	issuer, mrtd := newIssuer(t)
	clientEnd, proxyOuter := NewMemPipe()
	proxyInner, monEnd := NewMemPipe()
	pr := &Proxy{Outer: proxyOuter, Inner: proxyInner}

	hello, priv, _ := NewClientHelloRand(nil)
	helloFrame, err := EncodeHello(hello)
	if err != nil {
		t.Fatal(err)
	}
	if err := clientEnd.Send(helloFrame); err != nil {
		t.Fatal(err)
	}
	pr.PumpOnce()
	frame, err := monEnd.Recv()
	if err != nil {
		t.Fatal(err)
	}
	gotHello, err := DecodeHello(frame)
	if err != nil {
		t.Fatal(err)
	}
	sh, sKeys, err := ServerHandshakeRand(nil, gotHello, issuer)
	if err != nil {
		t.Fatal(err)
	}
	shWire, err := EncodeServerHello(sh)
	if err != nil {
		t.Fatal(err)
	}
	if err := monEnd.Send(shWire); err != nil {
		t.Fatal(err)
	}
	pr.PumpOnce()
	shFrame, _ := clientEnd.Recv()
	gotSH, err := DecodeServerHello(shFrame)
	if err != nil {
		t.Fatal(err)
	}
	cKeys, err := ClientFinish(hello, priv, gotSH, issuer.qk.Public(), &mrtd)
	if err != nil {
		t.Fatal(err)
	}
	cConn, _ := cKeys.Conn(clientEnd, 0)
	sConn, _ := sKeys.Conn(monEnd, 0)
	secret := []byte("the client's medical history")
	if err := cConn.Send(secret); err != nil {
		t.Fatal(err)
	}
	pr.PumpOnce()
	got, err := sConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("message corrupted through proxy")
	}
	for _, seen := range pr.Seen {
		if bytes.Contains(seen, secret) {
			t.Fatal("proxy observed plaintext")
		}
	}
}

func TestMemPipeEmpty(t *testing.T) {
	a, _ := NewMemPipe()
	if _, err := a.Recv(); err != ErrEmpty {
		t.Fatalf("empty recv: %v", err)
	}
}
