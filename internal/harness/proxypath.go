package harness

import (
	"github.com/asterisc-release/erebor-go/internal/secchan"
)

// The full Fig 7 data path: a remote client talks to the host NIC; the
// untrusted in-CVM proxy moves frames between the NIC (via GHCI
// vmcalls, EMC-delegated under Erebor) and the monitor. Everything the
// host or proxy can observe is ciphertext.

// hostNIC is the remote client's view of the host network: frames pushed
// here appear at the guest's NetRecv, and guest NetSends appear here.
type hostNIC struct{ w *World }

// Send queues a frame for the guest (typed backpressure when the host NIC
// receive queue is full).
func (h *hostNIC) Send(frame []byte) error {
	if !h.w.Host.EnqueueNetIn(frame) {
		return secchan.ErrQueueFull
	}
	return nil
}

// Recv pops a frame the guest transmitted.
func (h *hostNIC) Recv() ([]byte, error) {
	if len(h.w.Host.NetOut) == 0 {
		return nil, secchan.ErrEmpty
	}
	f := h.w.Host.NetOut[0]
	h.w.Host.NetOut = h.w.Host.NetOut[1:]
	return f, nil
}

// NetSession wires a client to the monitor through the complete network
// stack: host NIC <-> kernel proxy (GHCI vmcalls) <-> monitor transport.
type NetSession struct {
	Client *Client
	w      *World
	// monIn/monOut are the monitor-side queues the proxy feeds.
	monSide   *secchan.MemPipe
	proxySide *secchan.MemPipe
}

// NewNetSession builds the full-stack session plumbing.
func NewNetSession(w *World) *NetSession {
	proxySide, monSide := secchan.NewMemPipe()
	cl := NewClient(&hostNIC{w}, w.QK.Public(), w.expectedMRTD)
	return &NetSession{Client: cl, w: w, monSide: monSide, proxySide: proxySide}
}

// MonTransport is handed to AcceptSession.
func (s *NetSession) MonTransport() secchan.Transport { return s.monSide }

// PumpProxy runs the untrusted proxy program once: move any NIC frame to
// the monitor and any monitor frame to the NIC. Under Erebor every NIC
// interaction is an EMC-delegated vmcall.
func (s *NetSession) PumpProxy(rounds int) error {
	for i := 0; i < rounds; i++ {
		in, err := s.w.K.NetRecv()
		if err != nil {
			return err
		}
		if in != nil {
			if err := s.proxySide.Send(in); err != nil {
				return err
			}
		}
		out, err := s.proxySide.Recv()
		if err == nil {
			if err := s.w.K.NetSend(out); err != nil {
				return err
			}
		}
	}
	return nil
}
