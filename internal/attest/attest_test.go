package attest

import (
	"testing"

	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

func quotedReport(t *testing.T) (*QuotingKey, *tdx.Module, *Quote) {
	t.Helper()
	qk, err := NewQuotingKeyRand(nil)
	if err != nil {
		t.Fatal(err)
	}
	mod := tdx.NewModule(mem.NewPhysical(1<<20), nil)
	mod.MeasureBoot("firmware", []byte("fw"))
	mod.MeasureBoot("monitor", []byte("mon"))
	r, err := mod.GenerateReport([]byte("binding"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := qk.Sign(r)
	if err != nil {
		t.Fatal(err)
	}
	return qk, mod, q
}

func TestSignVerifyRoundTrip(t *testing.T) {
	qk, mod, q := quotedReport(t)
	mrtd := mod.MRTD()
	r, err := Verify(qk.Public(), q, &mrtd)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.ReportData[:7]) != "binding" {
		t.Fatal("report data lost")
	}
	// Verification without an expected MRTD also works (caller checks).
	if _, err := Verify(qk.Public(), q, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsTamperedReport(t *testing.T) {
	qk, mod, q := quotedReport(t)
	mrtd := mod.MRTD()
	q.Report.ReportData[0] ^= 1
	if _, err := Verify(qk.Public(), q, &mrtd); err == nil {
		t.Fatal("tampered report verified")
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	qk, mod, q := quotedReport(t)
	mrtd := mod.MRTD()
	q.SigR[0] ^= 1
	if _, err := Verify(qk.Public(), q, &mrtd); err == nil {
		t.Fatal("tampered signature verified")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	_, mod, q := quotedReport(t)
	other, err := NewQuotingKeyRand(nil)
	if err != nil {
		t.Fatal(err)
	}
	mrtd := mod.MRTD()
	if _, err := Verify(other.Public(), q, &mrtd); err == nil {
		t.Fatal("quote verified under the wrong key")
	}
}

func TestVerifyRejectsWrongMRTD(t *testing.T) {
	qk, _, q := quotedReport(t)
	var wrong [tdx.MeasurementSize]byte
	wrong[5] = 0x77
	if _, err := Verify(qk.Public(), q, &wrong); err == nil {
		t.Fatal("quote verified against wrong measurement")
	}
}

func TestSignRefusesForgedReport(t *testing.T) {
	qk, _, _ := quotedReport(t)
	if _, err := qk.Sign(&tdx.Report{}); err == nil {
		t.Fatal("quoting key signed a struct not produced by the TDX module")
	}
	if _, err := qk.Sign(nil); err == nil {
		t.Fatal("quoting key signed nil")
	}
}

func TestVerifyNilQuote(t *testing.T) {
	qk, _, _ := quotedReport(t)
	if _, err := Verify(qk.Public(), nil, nil); err == nil {
		t.Fatal("nil quote verified")
	}
}
