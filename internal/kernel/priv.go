package kernel

import (
	"fmt"
	"slices"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

// AddrSpace is the kernel's handle on one user address space. In Erebor
// mode only the monitor can mutate it; the kernel may still *walk* it (PTP
// frames are kernel-readable, only write-protected).
type AddrSpace struct {
	ASID  monitor.ASID // 0 in native mode
	root  mem.Frame
	owner mem.Owner
	// tables is writable in native mode; in Erebor mode it is a walk-only
	// view used for translations.
	tables *paging.Tables
	// ring is the async EMC submission ring of this address space, created
	// lazily on the first enqueue when Monitor.RingMMU is on (Erebor only).
	ring *monitor.SubmitRing
}

// Tables exposes the walkable view of the address space (native kernels
// also mutate through it; under Erebor mutation requires EMCs).
func (as *AddrSpace) Tables() *paging.Tables { return as.tables }

// Translate resolves a user VA to its mapped frame.
func (as *AddrSpace) Translate(va paging.Addr) (mem.Frame, bool) {
	pte, _, r := as.tables.Lookup(va)
	if r != paging.FaultNone {
		return 0, false
	}
	return pte.Frame(), true
}

// privOps abstracts the sensitive operations so the same kernel logic runs
// natively (direct instructions) and under Erebor (EMC delegation).
type privOps interface {
	CreateAS(c *cpu.Core, owner mem.Owner) (*AddrSpace, error)
	// Submit is the one way the kernel changes a user mapping. It applies
	// reqs to as in order and returns n: reqs[:n] are applied and stay
	// applied, and err is why reqs[n] was not. An empty list changes
	// nothing. Only the Erebor backend picks how the requests reach the
	// monitor: the submission ring, one batch EMC or one EMC per request.
	Submit(c *cpu.Core, as *AddrSpace, reqs []monitor.RingReq) (n int, err error)
	SwitchTo(c *cpu.Core, as *AddrSpace) error
	UserCopy(c *cpu.Core, as *AddrSpace, dir monitor.CopyDir, va uint64, buf []byte) error
	MapGPA(c *cpu.Core, f mem.Frame, toShared bool) error
	VMCall(c *cpu.Core, sub uint64, args []uint64, frames []mem.Frame, payload []byte) ([]uint64, error)
	WriteMSR(c *cpu.Core, idx uint32, val uint64) error
}

// --- native implementation ----------------------------------------------------

type nativePriv struct {
	k            *Kernel
	kernelTables *paging.Tables
}

func (np *nativePriv) allocPTP() (mem.Frame, error) {
	return np.k.M.Phys.Alloc(mem.OwnerKernel)
}

func (np *nativePriv) chargePTE(mem.Addr, paging.PTE) {
	np.k.M.Clock.Charge(costs.NativePTEWrite)
}

func (np *nativePriv) buildKernelTables() error {
	t, err := paging.New(np.k.M.Phys, np.allocPTP)
	if err != nil {
		return err
	}
	np.kernelTables = t
	leaf := (paging.Present | paging.Writable | paging.NX).WithFrame(0)
	if err := t.MapRange(monitor.DirectMapAddr(0), leaf, np.k.M.Phys.NumFrames()); err != nil {
		return err
	}
	t.OnPTEWrite = np.chargePTE
	return nil
}

func (np *nativePriv) CreateAS(c *cpu.Core, owner mem.Owner) (*AddrSpace, error) {
	t, err := paging.New(np.k.M.Phys, np.allocPTP)
	if err != nil {
		return nil, err
	}
	for i := 256; i < 512; i++ {
		a := mem.Addr(np.kernelTables.Root.Base()) + mem.Addr(i*8)
		e, err := paging.ReadPTE(np.k.M.Phys, a)
		if err != nil {
			return nil, err
		}
		if e.Is(paging.Present) {
			dst := mem.Addr(t.Root.Base()) + mem.Addr(i*8)
			if err := paging.WritePTE(np.k.M.Phys, dst, e); err != nil {
				return nil, err
			}
		}
	}
	t.OnPTEWrite = np.chargePTE
	return &AddrSpace{root: t.Root, owner: owner, tables: t}, nil
}

// shootIfChanged invalidates a replaced or cleared translation on every
// core. Native kernels are responsible for their own TLB coherence;
// first-time installs and identical rewrites need no shootdown.
func (np *nativePriv) shootIfChanged(c *cpu.Core, as *AddrSpace, va paging.Addr, prev, next paging.PTE) {
	if prev.Is(paging.Present) && prev != next {
		np.k.M.Shootdown(c, as.tables.Root, paging.PageBase(va))
	}
}

// Submit writes each request's leaf directly and shoots down what it
// replaced. A native kernel has no reclaim rule of its own, so a reclaim
// is an unmap.
func (np *nativePriv) Submit(c *cpu.Core, as *AddrSpace, reqs []monitor.RingReq) (int, error) {
	for i, r := range reqs {
		// A missed lookup returns no present entry, so prev tells alone
		// whether a translation is being replaced.
		prev, _, _ := as.tables.Lookup(paging.PageBase(r.VA))
		var next paging.PTE
		var err error
		switch r.Op {
		case monitor.OpMap:
			next = paging.UserLeaf(r.Frame, r.Flags.Writable, r.Flags.Exec)
			err = as.tables.Map(r.VA, next)
		case monitor.OpUnmap, monitor.OpReclaim:
			err = as.tables.Unmap(r.VA)
		case monitor.OpProtect:
			next = paging.UserLeaf(prev.Frame(), r.Flags.Writable, r.Flags.Exec)
			err = as.tables.Update(r.VA, func(paging.PTE) paging.PTE { return next })
		}
		if err != nil {
			return i, err
		}
		np.shootIfChanged(c, as, r.VA, prev, next)
	}
	return len(reqs), nil
}

func (np *nativePriv) SwitchTo(c *cpu.Core, as *AddrSpace) error {
	root := np.kernelTables.Root
	if as != nil {
		root = as.tables.Root
	}
	if t := c.WriteCR(cpu.CR3, uint64(root.Base())); t != nil {
		return t
	}
	return nil
}

func (np *nativePriv) UserCopy(c *cpu.Core, as *AddrSpace, dir monitor.CopyDir, va uint64, buf []byte) error {
	if t := c.STAC(); t != nil {
		return t
	}
	defer func() {
		if t := c.CLAC(); t != nil {
			panic(t.Error())
		}
	}()
	off := 0
	for off < len(buf) {
		pte, _, _ := as.tables.Lookup(paging.Addr(va))
		if !pte.Is(paging.Present | paging.User) {
			return fmt.Errorf("kernel: user page %#x not mapped", va)
		}
		if dir == monitor.CopyToUser && !pte.Is(paging.Writable) {
			return fmt.Errorf("kernel: user page %#x not writable", va)
		}
		pageOff := int(va & 0xFFF)
		n := len(buf) - off
		if n > mem.PageSize-pageOff {
			n = mem.PageSize - pageOff
		}
		pa := pte.Frame().Base() + mem.Addr(pageOff)
		var err error
		if dir == monitor.CopyToUser {
			err = np.k.M.Phys.WritePhys(pa, buf[off:off+n])
		} else {
			err = np.k.M.Phys.ReadPhys(pa, buf[off:off+n])
		}
		if err != nil {
			return err
		}
		np.k.M.Clock.Charge(costs.Copy(n))
		va += uint64(n)
		off += n
	}
	return nil
}

func (np *nativePriv) MapGPA(c *cpu.Core, f mem.Frame, toShared bool) error {
	_, t := c.TDCall(tdx.LeafMapGPA, []uint64{uint64(f), b64(toShared)})
	if t != nil {
		return t
	}
	return nil
}

func (np *nativePriv) VMCall(c *cpu.Core, sub uint64, args []uint64, frames []mem.Frame, payload []byte) ([]uint64, error) {
	if len(payload) > 0 {
		if err := np.k.TDX.StageSharedBuffer(frames, payload); err != nil {
			return nil, err
		}
	}
	ret, t := c.TDCall(tdx.LeafVMCall, append([]uint64{sub}, args...))
	if t != nil {
		return nil, t
	}
	return ret, nil
}

func (np *nativePriv) WriteMSR(c *cpu.Core, idx uint32, val uint64) error {
	if t := c.WriteMSR(idx, val); t != nil {
		return t
	}
	return nil
}

// --- Erebor implementation -----------------------------------------------------

type ereborPriv struct {
	k   *Kernel
	mon *monitor.Monitor
}

func (ep *ereborPriv) CreateAS(c *cpu.Core, owner mem.Owner) (*AddrSpace, error) {
	asid, err := ep.mon.EMCCreateAS(c, owner)
	if err != nil {
		return nil, err
	}
	root, _ := ep.mon.ASRoot(asid)
	return &AddrSpace{
		ASID: asid, root: root, owner: owner,
		tables: &paging.Tables{Phys: ep.k.M.Phys, Root: root},
	}, nil
}

// Submit picks the strategy from the monitor's switches: the submission
// ring when RingMMU is on; one batch EMC when BatchMMU is on and every
// request is a map; otherwise one EMC per request.
func (ep *ereborPriv) Submit(c *cpu.Core, as *AddrSpace, reqs []monitor.RingReq) (int, error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	if ep.mon.RingMMU {
		return ep.submitRing(c, as, reqs)
	}
	if ep.mon.BatchMMU && !slices.ContainsFunc(reqs, func(r monitor.RingReq) bool { return r.Op != monitor.OpMap }) {
		// One MMU transaction: a refused batch applied nothing.
		if err := ep.mon.EMCUserMMU(c, as.ASID, reqs...); err != nil {
			return 0, err
		}
		return len(reqs), nil
	}
	return ep.each(c, as, reqs)
}

// each makes one EMC per request, in order, and stops at the first
// refusal.
func (ep *ereborPriv) each(c *cpu.Core, as *AddrSpace, reqs []monitor.RingReq) (int, error) {
	for i := range reqs {
		if err := ep.mon.EMCUserMMU(c, as.ASID, reqs[i]); err != nil {
			return i, err
		}
	}
	return len(reqs), nil
}

// submitRing queues reqs on as's submission ring, draining whenever the
// ring is full and once at the end, so a whole list commits under one
// gate crossing per ring's worth of requests.
func (ep *ereborPriv) submitRing(c *cpu.Core, as *AddrSpace, reqs []monitor.RingReq) (int, error) {
	if as.ring == nil {
		as.ring = monitor.NewSubmitRing(as.ASID, monitor.DefaultRingEntries)
	}
	base := 0 // reqs[base:i] are queued on the ring
	for i, r := range reqs {
		if as.ring.Len() >= as.ring.Cap() {
			if n, err := ep.drain(c, as, reqs[base:i]); err != nil {
				return base + n, err
			}
			base = i
		}
		// One enqueue: write the request into the shared ring, bump the head.
		ep.k.M.Clock.ChargeFrame("kernel/ring/submit", costs.EreborRingSubmit)
		as.ring.Push(r)
	}
	n, err := ep.drain(c, as, reqs[base:])
	return base + n, err
}

// drain asks the monitor to consume as's ring, which holds queued, under
// one gate crossing. A refused drain (validation reject or commit rollback)
// left the address space as it was; queued is then replayed through the
// per-request EMCs, so each request's refusal surfaces as it would have
// without the ring.
func (ep *ereborPriv) drain(c *cpu.Core, as *AddrSpace, queued []monitor.RingReq) (int, error) {
	if err := ep.mon.EMCRingDrain(c, as.ring); err == nil {
		return len(queued), nil
	}
	as.ring.Reset()
	return ep.each(c, as, queued)
}

func (ep *ereborPriv) SwitchTo(c *cpu.Core, as *AddrSpace) error {
	if as == nil {
		return ep.mon.EMCSwitchAS(c, 0)
	}
	return ep.mon.EMCSwitchAS(c, as.ASID)
}

func (ep *ereborPriv) UserCopy(c *cpu.Core, as *AddrSpace, dir monitor.CopyDir, va uint64, buf []byte) error {
	return ep.mon.EMCUserCopy(c, as.ASID, dir, va, buf)
}

func (ep *ereborPriv) MapGPA(c *cpu.Core, f mem.Frame, toShared bool) error {
	return ep.mon.EMCMapGPA(c, f, toShared)
}

func (ep *ereborPriv) VMCall(c *cpu.Core, sub uint64, args []uint64, frames []mem.Frame, payload []byte) ([]uint64, error) {
	return ep.mon.EMCVMCall(c, sub, args, frames, payload)
}

func (ep *ereborPriv) WriteMSR(c *cpu.Core, idx uint32, val uint64) error {
	return ep.mon.EMCWriteMSR(c, idx, val)
}

func b64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
