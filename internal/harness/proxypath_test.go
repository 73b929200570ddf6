package harness

import (
	"bytes"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/kernel"
)

// TestFullGHCIProxyPath runs a complete client session through the real
// network stack: the client talks to the host NIC; the untrusted proxy
// moves frames with GHCI vmcalls (EMC-delegated under Erebor); the monitor
// terminates the channel. The host's observation point (tdx.Host.Observed)
// must never contain plaintext — this is AV2 checked at the hardware exit
// boundary rather than at the proxy.
func TestFullGHCIProxyPath(t *testing.T) {
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 96})
	if err != nil {
		t.Fatal(err)
	}
	c := launchUpper(t, w)
	s := NewNetSession(w)

	if err := s.Client.Start(); err != nil {
		t.Fatal(err)
	}
	s.Pump(2)
	if err := c.AcceptSession(s.MonTr); err != nil {
		t.Fatalf("AcceptSession: %v", err)
	}
	s.Pump(2)
	if err := s.Client.Finish(); err != nil {
		t.Fatalf("attestation over the NIC path: %v", err)
	}

	secret := []byte("wire-path confidential payload")
	if err := s.Client.Send(secret); err != nil {
		t.Fatal(err)
	}
	s.Pump(2)
	w.K.Schedule()
	if berr := c.BootErr(); berr != nil {
		t.Fatal(berr)
	}
	s.Pump(2)
	reply, err := s.Client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "WIRE-PATH CONFIDENTIAL PAYLOAD" {
		t.Fatalf("reply %q", reply)
	}

	// The host observed every byte that crossed the GHCI boundary; none of
	// it may be plaintext.
	if len(w.Host.Observed) == 0 {
		t.Fatal("host observed nothing — the GHCI path was not exercised")
	}
	upper := bytes.ToUpper(secret)
	for _, frame := range w.Host.Observed {
		if bytes.Contains(frame, secret) || bytes.Contains(frame, upper) {
			t.Fatal("plaintext crossed the GHCI boundary")
		}
	}
	// The proxy's traffic went through EMC-delegated vmcalls, and every
	// frame it relayed arrived: a failed NetSend counts as a drop.
	if w.Mon.EMCByKind()["ghci"] == 0 {
		t.Fatal("no GHCI EMCs recorded for the proxy path")
	}
	if st := s.Proxy.Stats(); st.Dropped != 0 || st.Forwarded == 0 {
		t.Fatalf("proxy forwarded %d frames and dropped %d", st.Forwarded, st.Dropped)
	}
}
