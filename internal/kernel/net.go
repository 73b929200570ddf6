package kernel

import (
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/secchan"
	"github.com/asterisc-release/erebor-go/internal/tdx"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// NetSend transmits a frame to the host NIC: the kernel copies the bytes
// into CVM-shared frames and performs the GHCI vmcall (directly in native
// mode, via an EMC under Erebor). The host sees the frame in cleartext —
// which is exactly why Erebor's channel encrypts end-to-end above this.
func (k *Kernel) NetSend(buf []byte) error {
	c := k.core()
	// The secure channel's wire costs surface here: staging copy, GHCI
	// round trip, NIC serialization.
	k.M.PushFrame("kernel/net/tx")
	defer k.M.PopFrame()
	need := (len(buf) + mem.PageSize - 1) / mem.PageSize
	if need == 0 {
		need = 1
	}
	if len(k.sharedIO) < need {
		if err := k.AllocSharedIO(need - len(k.sharedIO)); err != nil {
			return err
		}
	}
	capBytes := len(k.sharedIO) * mem.PageSize
	if len(buf) > capBytes {
		return fmt.Errorf("kernel: frame %d bytes exceeds shared-io capacity %d", len(buf), capBytes)
	}
	// Copy into the shared frames (the DMA-visible staging area).
	rem := buf
	for _, f := range k.sharedIO {
		if len(rem) == 0 {
			break
		}
		b, err := k.M.Phys.Bytes(f)
		if err != nil {
			return err
		}
		n := copy(b, rem)
		rem = rem[n:]
	}
	k.M.Clock.Charge(costs.Copy(len(buf)))
	k.Rec.Emit(trace.KindNetTx, trace.TrackKernel, "")
	ret, err := k.priv.VMCall(c, tdx.VMCallNetTx, []uint64{uint64(len(buf))}, k.sharedIO, buf)
	// NIC serialization / client-side receive processing.
	k.M.Clock.Charge(costs.Wire(len(buf)))
	if h, ok := hostOf(k.TDX); ok {
		k.Met.SetMax(metrics.FamilyHighWater, uint64(len(h.NetOut)),
			metrics.KV("resource", metrics.ResourceNICQueue))
	}
	if err != nil {
		return err
	}
	// The NIC reports accepted bytes; zero on a non-empty frame means its
	// transmit queue is full — surface typed backpressure, never drop
	// silently.
	if len(buf) > 0 && (len(ret) == 0 || ret[0] == 0) {
		return fmt.Errorf("kernel: NIC transmit queue full: %w", secchan.ErrQueueFull)
	}
	return nil
}

// NetRecv pulls one frame from the host NIC, or nil when none is queued.
func (k *Kernel) NetRecv() ([]byte, error) {
	c := k.core()
	k.M.PushFrame("kernel/net/rx")
	defer k.M.PopFrame()
	if h, ok := hostOf(k.TDX); ok {
		k.Met.SetMax(metrics.FamilyHighWater, uint64(len(h.NetIn)),
			metrics.KV("resource", metrics.ResourceNICQueue))
	}
	ret, err := k.priv.VMCall(c, tdx.VMCallNetRx, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	if len(ret) == 0 || ret[0] == 0 {
		return nil, nil
	}
	data := k.TDX.ConsumeInbound()
	k.M.Clock.Charge(costs.Copy(len(data)))
	k.Rec.Emit(trace.KindNetRx, trace.TrackKernel, "")
	return data, nil
}

// hostOf extracts the concrete host VMM (for NIC queue-depth watermarks);
// custom HostHandler implementations simply go unmetered.
func hostOf(m *tdx.Module) (*tdx.Host, bool) {
	if m == nil {
		return nil, false
	}
	h, ok := m.Host.(*tdx.Host)
	return h, ok
}

// NetTransport adapts the kernel's GHCI networking into a
// secchan.Transport: this is the untrusted proxy's path between the
// monitor and the outside world (§6.3).
type NetTransport struct{ K *Kernel }

// Send implements secchan.Transport.
func (n *NetTransport) Send(frame []byte) error { return n.K.NetSend(frame) }

// Recv implements secchan.Transport.
func (n *NetTransport) Recv() ([]byte, error) {
	f, err := n.K.NetRecv()
	if err != nil {
		return nil, err
	}
	if f == nil {
		return nil, secchan.ErrEmpty
	}
	return f, nil
}
