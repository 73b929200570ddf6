package harness

import (
	"github.com/asterisc-release/erebor-go/internal/kernel"
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

// NewNetSession builds a session over the full Fig 7 path: the client
// talks to the host NIC, and the session's proxy relays between the NIC,
// reached through the kernel's GHCI networking, and the monitor.
func NewNetSession(w *World) *Session {
	return newSession(w, &hostNIC{w}, &kernel.NetTransport{K: w.K})
}
