// Package tdx simulates the Intel TDX module and the untrusted host side of
// a TD guest: the secure EPT private/shared page states, the tdcall
// instruction's leaves (GHCI vmcall exits, MapGPA memory conversion,
// TDREPORT attestation), guest-context protection at exits, #VE injection,
// and the host VMM that services synchronous exits.
package tdx

import (
	"crypto/sha512"
	"encoding/binary"
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
)

// tdcall leaf numbers (subset of the GHCI specification).
const (
	LeafVMCall   uint64 = 0  // synchronous exit to the host VMM
	LeafTDReport uint64 = 4  // generate an attestation report
	LeafMapGPA   uint64 = 10 // convert guest memory private<->shared
)

// VMCall sub-functions carried in args[0] of a LeafVMCall.
const (
	VMCallCPUID  uint64 = 1
	VMCallMMIO   uint64 = 2
	VMCallHLT    uint64 = 3
	VMCallNetTx  uint64 = 4 // proxy network transmit (shared-memory I/O)
	VMCallNetRx  uint64 = 5
	VMCallCustom uint64 = 6
)

// ReportDataSize is the caller-chosen data bound into a TDREPORT.
const ReportDataSize = 64

// MeasurementSize is SHA-384 (48 bytes), matching TDX.
const MeasurementSize = sha512.Size384

// Report is a TDREPORT: the CPU-generated evidence structure. Integrity is
// provided in hardware by an HMAC only the CPU can compute; in the
// simulation only the Module can construct Reports with Valid=true, and
// internal/attest will only quote valid reports.
type Report struct {
	MRTD       [MeasurementSize]byte    // build-time measurement (firmware+monitor)
	RTMR       [4][MeasurementSize]byte // runtime measurement registers
	ReportData [ReportDataSize]byte     // caller-supplied (e.g. channel key material)
	valid      bool
}

// Valid reports whether the report was produced by the TDX module.
func (r *Report) Valid() bool { return r.valid }

// HostHandler is the untrusted VMM's view of a synchronous exit. The
// returned values travel back to the guest unprotected (the host sees and
// may tamper with everything passed here — tests rely on that).
type HostHandler interface {
	VMExit(sub uint64, args []uint64, data []byte) ([]uint64, []byte)
}

// DefaultNetQueueCap bounds each host NIC direction: generous enough for
// every legitimate workload, finite so a flooding peer exhausts its queue,
// not the VMM's memory.
const DefaultNetQueueCap = 1024

// Host is a simple untrusted VMM: it serves cpuid values, byte-bucket
// network endpoints for the proxy, and records what it observed (attack
// tests inspect Observed to prove data never reaches the host in
// plaintext).
type Host struct {
	CPUIDValues map[uint64][4]uint64

	// NetOut collects frames the guest transmitted; NetIn queues frames for
	// the guest to receive.
	NetOut [][]byte
	NetIn  [][]byte

	// NetQueueCap bounds NetOut/NetIn depth (0 = unbounded). A full NetOut
	// makes NetTx report zero bytes accepted; a full NetIn refuses
	// EnqueueNetIn. Either way the drop is counted in NetDrops.
	NetQueueCap int
	NetDrops    uint64

	// Observed records every byte buffer the host saw at exits.
	Observed [][]byte
}

// NewHost returns a host VMM with a default cpuid table.
func NewHost() *Host {
	return &Host{
		CPUIDValues: map[uint64][4]uint64{
			0: {0x16, 0x756e6547, 0x6c65746e, 0x49656e69}, // "GenuineIntel"
			1: {0x000806F8, 0x00100800, 0x7FFAFBFF, 0xBFEBFBFF},
		},
		NetQueueCap: DefaultNetQueueCap,
	}
}

// EnqueueNetIn queues a frame for the guest to receive, honoring the queue
// bound. Returns false (and counts the drop) when the queue is full.
func (h *Host) EnqueueNetIn(frame []byte) bool {
	if h.NetQueueCap > 0 && len(h.NetIn) >= h.NetQueueCap {
		h.NetDrops++
		return false
	}
	cp := make([]byte, len(frame))
	copy(cp, frame)
	h.NetIn = append(h.NetIn, cp)
	return true
}

// VMExit implements HostHandler.
func (h *Host) VMExit(sub uint64, args []uint64, data []byte) ([]uint64, []byte) {
	if data != nil {
		cp := make([]byte, len(data))
		copy(cp, data)
		h.Observed = append(h.Observed, cp)
	}
	switch sub {
	case VMCallCPUID:
		leaf := uint64(0)
		if len(args) > 0 {
			leaf = args[0]
		}
		v := h.CPUIDValues[leaf]
		return []uint64{v[0], v[1], v[2], v[3]}, nil
	case VMCallNetTx:
		if h.NetQueueCap > 0 && len(h.NetOut) >= h.NetQueueCap {
			// Queue full: zero bytes accepted; the guest driver decides
			// whether (and when) to retry.
			h.NetDrops++
			return []uint64{0}, nil
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		h.NetOut = append(h.NetOut, cp)
		return []uint64{uint64(len(data))}, nil
	case VMCallNetRx:
		if len(h.NetIn) == 0 {
			return []uint64{0}, nil
		}
		f := h.NetIn[0]
		h.NetIn = h.NetIn[1:]
		return []uint64{uint64(len(f))}, f
	}
	return []uint64{0}, nil
}

// Module is the simulated TDX module for one TD.
type Module struct {
	Phys *mem.Physical
	Host HostHandler

	mrtd [MeasurementSize]byte
	rtmr [4][MeasurementSize]byte

	// Stats for the evaluation harness.
	VMCalls uint64
	MapGPAs uint64
	Reports uint64

	// pendingData carries the shared-memory byte payload for the next
	// vmcall (the guest stages it via StageSharedBuffer; the simulation
	// verifies the frames really are shared).
	pending []byte

	// lastInbound holds the byte payload the host returned at the most
	// recent vmcall; the guest copies it out of shared memory with
	// ConsumeInbound.
	lastInbound []byte
}

// NewModule creates the TDX module bound to the TD's physical memory.
func NewModule(phys *mem.Physical, host HostHandler) *Module {
	return &Module{Phys: phys, Host: host}
}

// MeasureBoot folds a boot component (firmware, monitor image) into MRTD.
// Mirrors the build-time measurement: every measured byte changes MRTD.
func (m *Module) MeasureBoot(component string, image []byte) {
	h := sha512.New384()
	h.Write(m.mrtd[:])
	h.Write([]byte(component))
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(image)))
	h.Write(n[:])
	h.Write(image)
	copy(m.mrtd[:], h.Sum(nil))
}

// ExtendRTMR extends runtime measurement register idx with data.
func (m *Module) ExtendRTMR(idx int, data []byte) error {
	if idx < 0 || idx >= len(m.rtmr) {
		return fmt.Errorf("tdx: RTMR index %d out of range", idx)
	}
	h := sha512.New384()
	h.Write(m.rtmr[idx][:])
	h.Write(data)
	copy(m.rtmr[idx][:], h.Sum(nil))
	return nil
}

// MRTD returns the current build-time measurement.
func (m *Module) MRTD() [MeasurementSize]byte { return m.mrtd }

// StageSharedBuffer stages payload bytes for the next vmcall. Every byte
// must live in CVM-shared frames: the module refuses to expose private
// memory to the host. addr/frames identify where the payload lives.
func (m *Module) StageSharedBuffer(frames []mem.Frame, payload []byte) error {
	for _, f := range frames {
		meta, err := m.Phys.Meta(f)
		if err != nil {
			return err
		}
		if !meta.Shared {
			return fmt.Errorf("tdx: frame %d is CVM-private; cannot expose to host", f)
		}
	}
	m.pending = payload
	return nil
}

// TDCall implements cpu.TDCallHandler: the guest-side tdcall dispatch.
func (m *Module) TDCall(core *cpu.Core, leaf uint64, args []uint64) ([]uint64, *cpu.Trap) {
	switch leaf {
	case LeafVMCall:
		core.Machine.Clock.Charge(costs.TDCallRoundTrip)
		m.VMCalls++
		if len(args) == 0 {
			return nil, &cpu.Trap{Vector: cpu.VecGP, Detail: "tdx: vmcall without sub-function"}
		}
		data := m.pending
		m.pending = nil
		ret, rdata := m.Host.VMExit(args[0], args[1:], data)
		// Returned data arrives through shared memory; the caller copies it
		// out. Charge the copy.
		core.Machine.Clock.Charge(costs.Copy(len(rdata)))
		m.lastInbound = rdata
		return append(ret, packLen(rdata)), nil

	case LeafMapGPA:
		core.Machine.Clock.Charge(costs.TDCallRoundTrip + costs.MapGPAConvert)
		m.MapGPAs++
		if len(args) < 2 {
			return nil, &cpu.Trap{Vector: cpu.VecGP, Detail: "tdx: MapGPA needs frame and direction"}
		}
		frame := mem.Frame(args[0])
		toShared := args[1] != 0
		if err := m.Phys.SetShared(frame, toShared); err != nil {
			return nil, &cpu.Trap{Vector: cpu.VecGP, Detail: err.Error()}
		}
		return []uint64{0}, nil

	case LeafTDReport:
		core.Machine.Clock.Charge(costs.NativeTDReport)
		m.Reports++
		return []uint64{0}, nil

	default:
		return nil, &cpu.Trap{Vector: cpu.VecGP, Detail: fmt.Sprintf("tdx: unknown tdcall leaf %d", leaf)}
	}
}

// GenerateReport builds a TDREPORT with the given report data. Callers
// reach this through the monitor (which owns the tdcall choke point); the
// module itself only checks it is called alongside a LeafTDReport charge.
func (m *Module) GenerateReport(reportData []byte) (*Report, error) {
	if len(reportData) > ReportDataSize {
		return nil, fmt.Errorf("tdx: report data %d bytes exceeds %d", len(reportData), ReportDataSize)
	}
	r := &Report{MRTD: m.mrtd, RTMR: m.rtmr, valid: true}
	copy(r.ReportData[:], reportData)
	return r, nil
}

func packLen(b []byte) uint64 { return uint64(len(b)) }

// ConsumeInbound returns and clears the payload delivered by the most
// recent vmcall (the guest copying data out of shared memory).
func (m *Module) ConsumeInbound() []byte {
	d := m.lastInbound
	m.lastInbound = nil
	return d
}

// HostReadGuestFrame is an adversary hook for the AV1 attack tests (C6 and
// this package's sEPT tests). It models the host, or a device via DMA,
// trying to read a guest frame. TDX hardware forbids access to private
// memory; shared memory is readable.
func (m *Module) HostReadGuestFrame(f mem.Frame) ([]byte, error) {
	meta, err := m.Phys.Meta(f)
	if err != nil {
		return nil, err
	}
	if !meta.Shared {
		return nil, fmt.Errorf("tdx: host access to private frame %d blocked by sEPT", f)
	}
	b, err := m.Phys.Bytes(f)
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp, nil
}

// HostWriteGuestFrame is an adversary hook for this package's sEPT tests.
// It models host or DMA writes under the same sEPT rule.
func (m *Module) HostWriteGuestFrame(f mem.Frame, data []byte) error {
	meta, err := m.Phys.Meta(f)
	if err != nil {
		return err
	}
	if !meta.Shared {
		return fmt.Errorf("tdx: host write to private frame %d blocked by sEPT", f)
	}
	b, err := m.Phys.Bytes(f)
	if err != nil {
		return err
	}
	copy(b, data)
	return nil
}

// InjectVE models the module trapping a guest event (e.g. cpuid) and
// injecting a virtualization exception for the guest to handle (Fig 1).
func (m *Module) InjectVE(core *cpu.Core, detail string) {
	core.Machine.Clock.Charge(costs.VEInjection)
	core.Deliver(&cpu.Trap{Vector: cpu.VecVE, Detail: detail})
}

// HypercallNormalGuest models a vmcall from a plain (non-TD) KVM guest,
// used only as the Table 3 baseline.
func HypercallNormalGuest(core *cpu.Core, host HostHandler, sub uint64, args []uint64) []uint64 {
	core.Machine.Clock.Charge(costs.VMCallRoundTrip)
	ret, _ := host.VMExit(sub, args, nil)
	return ret
}
